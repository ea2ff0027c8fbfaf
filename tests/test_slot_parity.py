"""Parity of the table-driven slot solver and the split-scoring oracle
with the code they replaced.

`ReferenceSolver` keeps the per-call sell and buy solvers verbatim: each
call recomputes every stock's sell quantity, buy coefficient and buy
options from (queue, prices).  `reference_brute_force` scores every
joint (buys, sells) pair with the full objective.  Both are compared
with the live code on seeded random instances.
"""

import random
from fractions import Fraction

import pytest

from lyaptrade import (BudgetMode, CostFunction, MarketSpec, PriceDistribution,
                       StockSpec, TraderParams, compute_constants, run_backtest,
                       slot_profit)
from lyaptrade.errors import CapacityError, StructuralError
from lyaptrade.market import TradeDecision
from lyaptrade.oracles import brute_force_slot_min, enumerate_actions
from lyaptrade.trader import SlotSolver, queue_band, scaled_terms

from reference_helpers import reference_scaled_terms, replace


class ReferenceSolver(SlotSolver):
    """SlotSolver with the per-call sell, buy and step it had before the
    per-stock tables, copied verbatim."""

    def __init__(self, spec, params):
        super().__init__(spec, params)
        # The bodies below read the scaled frame off the solver itself,
        # where it lived before it moved to `terms`.
        t = self.terms
        self.scale, self.k, self.thetaS = t.scale, t.k, t.thetaS
        self.sell_cost, self.buy_cost = t.sell_cost, t.buy_cost
        self.profit = t.profit

    def sell(self, prices, queue, enforce_ownership: bool = True) -> tuple:
        S, k = self.scale, self.k
        out = []
        for n, (p, q) in enumerate(zip(prices, queue)):
            c = self.thetaS[n] - S * q - k * p
            table = self.sell_cost[n]
            hi = self.mu_max[n]
            if enforce_ownership and q < hi:
                hi = q
            best_mu, best = 0, 0
            for m in range(1, hi + 1):
                if m * p < table[m]:
                    continue
                val = c * m + k * table[m]
                if val < best:
                    best, best_mu = val, m
            out.append(best_mu)
        return tuple(out)

    def _buy_coeffs(self, prices, queue) -> list:
        S, k = self.scale, self.k
        return [S * q - self.thetaS[n] + k * p
                for n, (p, q) in enumerate(zip(prices, queue))]

    def _options(self, w, n) -> list:
        table = self.buy_cost[n]
        k = self.k
        out = [(0, 0)]
        best = 0
        for a in range(1, self.mu_max[n] + 1):
            val = w * a + k * table[a]
            if val < best:
                best = val
                out.append((a, val))
        return out

    def buy_exact(self, prices, queue) -> tuple:
        coeffs = self._buy_coeffs(prices, queue)
        if self.budget.mode == "none":
            return tuple(self._options(w, n)[-1][0]
                         for n, w in enumerate(coeffs))
        if self.budget.mode != "money":
            raise StructuralError("exact solver handles money or no budget")
        return self._budget_dp(coeffs, prices, self.budget.money,
                               "money-budget table",
                               "; consider the greedy solver")

    def _budget_dp(self, coeffs, sizes, limit, what, hint="") -> tuple:
        options = [self._options(w, n) for n, w in enumerate(coeffs)]
        best = tuple(opts[-1][0] for opts in options)
        if sum(a * z for a, z in zip(best, sizes)) <= limit:
            return best
        cap = self.cap
        work = 0
        dp = {0: (0, 0, ())}
        for opts, z in zip(options, sizes):
            new: dict = {}
            for used, (obj, shares, vec) in dp.items():
                for a, term in opts:
                    u = used + a * z
                    if u > limit:
                        break
                    cand = (obj + term, shares + a, vec + (a,))
                    old = new.get(u)
                    if old is None or cand < old:
                        new[u] = cand
                work += len(opts)
                if work > cap:
                    raise CapacityError(f"{what} reached {work} cells, over "
                                        f"the cap of {cap}{hint}")
            dp = new
        return min(dp.values())[2]

    def buy_greedy(self, prices, queue) -> tuple:
        if self.budget.mode == "shares":
            raise StructuralError("greedy solver relaxes a money budget")
        x = self.budget.money if self.budget.mode == "money" else None
        coeffs = self._buy_coeffs(prices, queue)
        k = self.k
        A = [0] * len(coeffs)
        spent = 0
        while True:
            best_n = -1
            best_j = 0
            best_num = best_den = 0  # ratio num/den, den > 0; p==0 acts as -inf
            for n, w in enumerate(coeffs):
                cap = self.mu_max[n] - A[n]
                if cap <= 0:
                    continue
                table = self.buy_cost[n]
                base = table[A[n]]
                num = None
                size = 0
                for j in range(1, cap + 1):
                    total = w * j + k * (table[A[n] + j] - base)
                    if total < 0 and (num is None or total * size < num * j):
                        num, size = total, j
                if num is None:
                    continue
                p = prices[n]
                if p == 0:
                    best_n, best_j, best_num, best_den = n, size, num, 0
                    break
                den = size * p
                if best_n < 0 or num * best_den < best_num * den:
                    best_n, best_j, best_num, best_den = n, size, num, den
            if best_n < 0:
                return tuple(A)
            table = self.buy_cost[best_n]
            start = A[best_n]
            for _ in range(best_j):
                A[best_n] += 1
                spent += prices[best_n]
                if x is not None and spent >= x:
                    taken = A[best_n] - start
                    partial = coeffs[best_n] * taken \
                        + k * (table[start + taken] - table[start])
                    if taken < best_j and partial >= 0:
                        A[best_n] = start
                        spent -= taken * prices[best_n]
                    return tuple(A)

    def buy_share_budget(self, prices, queue) -> tuple:
        coeffs = self._buy_coeffs(prices, queue)
        a_tot = self.budget.shares
        k = self.k
        if all(s.buy_cost.kind in ("zero", "linear") for s in self.spec.stocks):
            # Constant per-share weights: fill negative weights in
            # ascending order, lower index first on ties.
            weights = []
            for n, w in enumerate(coeffs):
                rate = self.spec.stocks[n].buy_cost.rate \
                    if self.spec.stocks[n].buy_cost.kind == "linear" else 0
                weights.append((w + k * rate, n))
            A = [0] * len(coeffs)
            remaining = a_tot
            for weight, n in sorted(w for w in weights if w[0] < 0):
                take = min(self.mu_max[n], remaining)
                A[n] = take
                remaining -= take
                if remaining == 0:
                    break
            return tuple(A)
        return self._budget_dp(coeffs, (1,) * len(coeffs), a_tot,
                               "share-budget table")

    def buy(self, prices, queue) -> tuple:
        if self.params.buy_solver == "greedy":
            return self.buy_greedy(prices, queue)
        # A share budget goes to the fill the live DP replaced.  It breaks
        # tied weights lower index first, which the DP does not; the
        # corpora here draw no tie that the two break apart.
        if self.budget.mode == "shares":
            return self.buy_share_budget(prices, queue)
        return self.buy_exact(prices, queue)

    def step(self, prices, queue) -> tuple:
        sells = self.sell(prices, queue)
        buys = self.buy(prices, queue)
        nq = tuple(v - m + a if v - m + a > 0 else 0
                   for v, m, a in zip(queue, sells, buys))
        return sells, buys, self.profit(prices, sells, buys), nq


def reference_brute_force(params, spec, prices, queue) -> TradeDecision:
    """Every feasible joint pair scored with the full slot objective."""
    prices = spec.check_prices(prices)
    score = scaled_terms(spec, params).scaled_objective
    _, _, both = min((score(prices, queue, d.sells, d.buys),
                      sum(d.sells) + sum(d.buys), d.sells + d.buys)
                     for d in enumerate_actions(spec, prices, queue).actions)
    n = spec.n_stocks
    return TradeDecision(both[n:], both[:n])


COST_KINDS = ("zero", "linear", "fixed", "table")


def _cost(rng, kind, mu_max, p_max, concave) -> CostFunction:
    if kind == "linear":
        return CostFunction("linear", rate=rng.randrange(0, p_max // 3 + 1))
    if kind == "fixed":
        return CostFunction("fixed", fee=rng.randrange(0, p_max // 2 + 1))
    if kind == "table":
        steps = sorted((rng.randrange(0, p_max // 2 + 1)
                        for _ in range(mu_max)), reverse=concave)
        values = [0]
        for s in steps:
            values.append(values[-1] + s)
        return CostFunction("table", values=tuple(values))
    return CostFunction()


def _market(rng, solver, budget, kinds) -> MarketSpec:
    """1-3 stocks whose buy and sell costs take the given kinds in turn;
    greedy markets keep concave buy costs."""
    n = rng.randint(1, 3)
    stocks = []
    for i in range(n):
        mu_max = rng.randint(1, 4 if n < 3 else 3)
        p_max = rng.choice((50, 100, 200, 300))
        buy_kind, sell_kind = kinds[i % len(kinds)]
        stocks.append(StockSpec(
            i, mu_max, p_max,
            _cost(rng, buy_kind, mu_max, p_max, concave=solver == "greedy"),
            _cost(rng, sell_kind, mu_max, p_max, concave=False)))
    total = sum(s.mu_max for s in stocks)
    full = sum(s.mu_max * s.p_max for s in stocks)
    if budget == "money":
        mode = BudgetMode("money", money=rng.choice(
            (full, rng.randrange(1, full + 1), rng.randrange(1, 200))))
    elif budget == "shares":
        mode = BudgetMode("shares", shares=rng.randint(1, total))
    else:
        mode = BudgetMode()
    return MarketSpec(tuple(stocks), mode)


def _params(rng, spec, solver, V_choices) -> TraderParams:
    """Default targets, or (one time in three) low ones, under which a
    queue below the trade cap wants to sell more than it holds."""
    theta = None
    if rng.random() < 1 / 3:
        theta = tuple(Fraction(rng.randrange(0, 4 * s.mu_max + 1), 2)
                      for s in spec.stocks)
    return TraderParams(V=rng.choice(V_choices), theta=theta,
                        buy_solver=solver)


def test_scaled_terms_match_reference():
    # The frame shared by the solver, the slot oracle and the frame lemma
    # is the one the solver built for itself; its profit is
    # market.slot_profit and its objective is S times the slot objective.
    rng = random.Random(2209)
    seen = set()
    for trial in range(400):
        budget = ("none", "money", "shares")[trial % 3]
        kinds = [(rng.choice(COST_KINDS), rng.choice(COST_KINDS))
                 for _ in range(3)]
        spec = _market(rng, "exact", budget, kinds)
        theta = None
        if trial % 2:
            theta = tuple(Fraction(rng.randrange(0, 900), rng.randint(1, 9))
                          for _ in spec.stocks)
        V = rng.choice((1, 5, 50, Fraction(35, 3), Fraction(7, 4)))
        params = TraderParams(V=V, theta=theta)
        terms = scaled_terms(spec, params)
        S, k, thetaS, sell_cost, buy_cost = reference_scaled_terms(spec,
                                                                   params)
        assert (terms.scale, terms.k, terms.thetaS, terms.sell_cost,
                terms.buy_cost) == (S, k, thetaS, sell_cost, buy_cost)
        assert scaled_terms(spec, params) is terms
        assert SlotSolver(spec, params).terms is terms
        # The frame lemma's integer window constant 2S²·D·T².
        T = rng.randint(1, 6)
        assert S * S * (3 * T * T + 2 * T + 1) * sum(
            s.mu_max ** 2 for s in spec.stocks) \
            == 2 * S * S * compute_constants(spec, T).D * T * T
        resolved = params.resolved_theta(spec)
        for _ in range(5):
            prices = tuple(rng.randrange(0, s.p_max + 1) for s in spec.stocks)
            queue = tuple(rng.randrange(0, 3 * s.mu_max + 4)
                          for s in spec.stocks)
            d = TradeDecision(*(tuple(rng.randint(0, s.mu_max)
                                      for s in spec.stocks)
                                for _ in range(2)))
            profit = slot_profit(spec, prices, d)
            assert terms.profit(prices, d.sells, d.buys) == profit
            objective = -params.V * Fraction(profit, 100) - sum(
                (q - t) * (m - a)
                for q, t, m, a in zip(queue, resolved, d.sells, d.buys))
            assert terms.scaled_objective(prices, queue, d.sells, d.buys) \
                == objective * S
        seen.update({budget, ("V", V)}, (c.kind for s in spec.stocks
                                          for c in (s.buy_cost, s.sell_cost)),
                    (("den", t.denominator) for t in theta or ()))
    assert seen >= {"none", "money", "shares", *COST_KINDS,
                    *(("V", V) for V in (1, 5, 50, Fraction(35, 3),
                                         Fraction(7, 4))),
                    *(("den", d) for d in range(1, 10))}, seen


def test_scaled_terms_reject_a_theta_of_another_market():
    spec = MarketSpec((StockSpec(0, 1, 100), StockSpec(1, 2, 100)))
    params = TraderParams(V=5, theta=(1,))
    for build in (scaled_terms, reference_scaled_terms, SlotSolver):
        with pytest.raises(StructuralError,
                           match="theta dimensioned for a different market"):
            build(spec, params)


# (buy solver, budget) pairs each solver accepts.
CASES = (("exact", "none"), ("exact", "money"), ("greedy", "none"),
         ("greedy", "money"), ("exact", "shares"))


def test_step_matches_reference_on_warm_tables():
    rng = random.Random(90210)
    seen = {"cases": set(), "costs": set(), "in_band": 0, "out_band": 0,
            "hits": 0, "owned": 0}
    for trial in range(300):
        solver_name, budget = CASES[trial % len(CASES)]
        kinds = [(rng.choice(COST_KINDS), rng.choice(COST_KINDS))
                 for _ in range(3)]
        spec = _market(rng, solver_name, budget, kinds)
        params = _params(rng, spec, solver_name,
                         (1, 5, 20, 50, Fraction(35, 3)))
        live, ref = SlotSolver(spec, params), ReferenceSolver(spec, params)
        exact = SlotSolver(spec, replace(params, buy_solver="exact")) \
            if solver_name == "greedy" else None
        band = queue_band(spec, params)
        # Small pools of prices and queues, so later calls find the
        # tables warm from earlier ones.
        price_pool = [tuple(0 if rng.random() < 0.2
                            else rng.randrange(0, s.p_max + 1)
                            for s in spec.stocks) for _ in range(4)]
        queue_pool = [tuple(rng.randrange(0, int(hi) + 6) for _, hi in band)
                      for _ in range(4)]
        for _ in range(40):
            prices, queue = rng.choice(price_pool), rng.choice(queue_pool)
            before = sum(map(len, live.tables))
            assert live.step(prices, queue) == ref.step(prices, queue)
            assert live.sell(prices, queue) == ref.sell(prices, queue)
            free = ref.sell(prices, queue, enforce_ownership=False)
            seen["owned"] += free != ref.sell(prices, queue)
            assert live.buy(prices, queue) == ref.buy(prices, queue)
            if exact is not None:
                assert exact.buy(prices, queue) \
                    == ref.buy_exact(prices, queue)
            seen["hits"] += sum(map(len, live.tables)) == before
            inside = all(lo <= q <= hi for q, (lo, hi) in zip(queue, band))
            seen["in_band" if inside else "out_band"] += 1
        seen["cases"].add((solver_name, budget))
        seen["costs"].update(k for s in spec.stocks
                             for k in (s.buy_cost.kind, s.sell_cost.kind))
    assert seen["cases"] == set(CASES)
    assert seen["costs"] == set(COST_KINDS)
    assert min(seen["in_band"], seen["out_band"], seen["hits"]) >= 1000, seen
    assert seen["owned"] >= 200, seen


def test_backtest_matches_reference_solver():
    rng = random.Random(4242)
    for trial in range(30):
        solver_name, budget = CASES[trial % len(CASES)]
        kinds = [(rng.choice(COST_KINDS), rng.choice(COST_KINDS))
                 for _ in range(3)]
        spec = _market(rng, solver_name, budget, kinds)
        params = TraderParams(V=rng.choice((5, 20, 50)),
                              buy_solver=solver_name)
        support = tuple({tuple(rng.randrange(0, s.p_max + 1)
                               for s in spec.stocks) for _ in range(3)})
        dist = PriceDistribution(support, (Fraction(1, len(support)),)
                                 * len(support))
        live = run_backtest(spec, params, dist, 300, seed=trial)
        ref = run_backtest(spec, params, dist, 300, seed=trial,
                           solver=ReferenceSolver(spec, params))
        assert (live.sells, live.buys, live.queues, live.profits) \
            == (ref.sells, ref.buys, ref.queues, ref.profits)


def test_brute_force_matches_reference_scorer():
    rng = random.Random(31337)
    ties = 0
    for trial in range(3000):
        solver_name, budget = CASES[trial % len(CASES)]
        kinds = [(rng.choice(COST_KINDS), rng.choice(COST_KINDS))
                 for _ in range(3)]
        spec = _market(rng, solver_name, budget, kinds)
        if sum(s.mu_max for s in spec.stocks) > 6:
            spec = MarketSpec(spec.stocks[:2], spec.budget)
        params = _params(rng, spec, solver_name, (1, 5, 20, Fraction(35, 3)))
        band = queue_band(spec, params)
        prices = tuple(0 if rng.random() < 0.3
                       else rng.randrange(0, s.p_max + 1) for s in spec.stocks)
        queue = tuple(rng.randrange(0, int(hi) + 6) for _, hi in band)
        if trial % 3 == 0:
            # Zero prices at a queue on its target make the objective flat
            # in every zero-cost quantity: ties to break.
            theta = params.resolved_theta(spec)
            prices = (0,) + prices[1:]
            queue = (int(theta[0]),) + queue[1:]
        got = brute_force_slot_min(params, spec, prices, queue)
        assert got == reference_brute_force(params, spec, prices, queue)
        score = scaled_terms(spec, params).scaled_objective
        best = score(prices, queue, got.sells, got.buys)
        ties += sum(score(prices, queue, d.sells, d.buys) == best
                    for d in enumerate_actions(spec, prices, queue).actions) > 1
    assert ties >= 300, ties


def _with_budget(spec, mode, limit) -> MarketSpec:
    field = "money" if mode == "money" else "shares"
    return MarketSpec(spec.stocks, BudgetMode(mode, **{field: limit}))


def test_step_records_match_reference_at_the_budget_edge():
    # A slot whose per-stock minimisers spend exactly the limit is put
    # together from their table records without the DP; one cent or share
    # less sends it to the DP.  Greedy decides both slots itself.
    rng = random.Random(1809)
    seen = {}
    for trial in range(900):
        solver_name, mode = (("exact", "money"), ("exact", "shares"),
                             ("greedy", "money"))[trial % 3]
        kinds = [(rng.choice(COST_KINDS), rng.choice(COST_KINDS))
                 for _ in range(3)]
        spec = _market(rng, solver_name, "none", kinds)
        params = _params(rng, spec, solver_name, (1, 5, 20, Fraction(35, 3)))
        prices = tuple(0 if rng.random() < 0.2
                       else rng.randrange(0, s.p_max + 1) for s in spec.stocks)
        queue = tuple(rng.randrange(0, int(hi) + 6)
                      for _, hi in queue_band(spec, params))
        free = SlotSolver(spec, params)
        assert free.step(prices, queue) \
            == ReferenceSolver(spec, params).step(prices, queue)
        best = ReferenceSolver(spec, replace(params, buy_solver="exact")) \
            .buy_exact(prices, queue)
        sizes = prices if mode == "money" else (1,) * len(prices)
        spend = sum(a * z for a, z in zip(best, sizes))
        if spend < 2:
            continue
        for limit in (spend, spend - 1):
            tight = _with_budget(spec, mode, limit)
            live, ref = SlotSolver(tight, params), ReferenceSolver(tight, params)
            fits = limit == spend
            if fits and solver_name == "exact":
                live._pick = None  # the DP must not be reached
            got = live.step(prices, queue)
            assert got == ref.step(prices, queue), (trial, limit)
            assert live.step(prices, queue) == got  # from warm tables
            if solver_name == "exact":
                assert (got[1] == best) == fits, (trial, limit)
            key = (solver_name, mode, fits)
            seen[key] = seen.get(key, 0) + 1
    assert len(seen) == 6 and min(seen.values()) >= 50, seen
