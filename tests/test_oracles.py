"""Comparison oracles: action enumeration, the price-only LP, the frame
lookahead, and the brute-force slot minimizer."""

import itertools
from fractions import Fraction

import pytest

from lyaptrade import (BudgetMode, CostFunction, MarketSpec, PriceDistribution,
                       StockSpec, TradeDecision, TraderParams,
                       brute_force_slot_min, drift_rebalance,
                       enumerate_actions, lookahead_psi, solve_phi_opt)
from lyaptrade import oracles
from lyaptrade.errors import CapacityError
from lyaptrade.market import slot_profit
from lyaptrade.trader import SlotSolver

from conftest import (one_stock_spec, params_for, random_dist,
                      random_small_spec, random_trace, uniform_two_price)


class TestEnumerate:
    def test_full_grid(self):
        aset = enumerate_actions(one_stock_spec(), (100,))
        pairs = {(d.buys[0], d.sells[0]) for d in aset.actions}
        assert pairs == {(a, m) for a in (0, 1) for m in (0, 1)}

    def test_fee_filters_all_sales(self):
        spec = one_stock_spec(mu_max=2, p_max_cents=100,
                              sell=CostFunction("fixed", fee=250))
        aset = enumerate_actions(spec, (100,))
        assert all(d.sells == (0,) for d in aset.actions)

    def test_budget_filters_buys(self):
        spec = one_stock_spec(mu_max=2, p_max_cents=100,
                              budget=BudgetMode("money", money=1))
        aset = enumerate_actions(spec, (100,))
        assert all(d.buys == (0,) for d in aset.actions)

    def test_queue_caps_sales(self):
        aset = enumerate_actions(one_stock_spec(mu_max=3), (100,), queue=(1,))
        assert max(d.sells[0] for d in aset.actions) == 1

    def test_capacity_cap(self, monkeypatch):
        monkeypatch.setenv("LYAPTRADE_CAPACITY_CELLS", "3")
        spec = one_stock_spec(mu_max=3)
        with pytest.raises(CapacityError):
            enumerate_actions(spec, (100,))


def deterministic_phi_opt(spec, dist):
    """Independent oracle: optimum over mixtures of per-price deterministic
    assignments, exact.  Mixes at most n_stocks + 1 vertices, found by
    solving the drift-active linear systems in Fractions.

    Valid because the policy polytope is a product of simplices whose
    vertices are exactly the deterministic assignments.
    """
    sets = [enumerate_actions(spec, p) for p in dist.support]
    vertices = []
    for combo in itertools.product(*(s.actions for s in sets)):
        profit = sum(pi * Fraction(slot_profit(spec, price, d), 100)
                     for (price, d), pi
                     in zip(zip(dist.support, combo), dist.probs))
        drift = tuple(
            sum(pi * (d.buys[n] - d.sells[n])
                for d, pi in zip(combo, dist.probs))
            for n in range(spec.n_stocks))
        vertices.append((profit, drift))
    n = spec.n_stocks
    best = None
    for subset in itertools.combinations(range(len(vertices)), 1):
        profit, drift = vertices[subset[0]]
        if all(d >= 0 for d in drift):
            best = profit if best is None else max(best, profit)
    if n == 1:
        # pairs mixed to put the drift exactly at zero
        for (p1, d1), (p2, d2) in itertools.combinations(vertices, 2):
            if d2[0] > 0 > d1[0]:
                (p1, d1), (p2, d2) = (p2, d2), (p1, d1)
            if d1[0] > 0 > d2[0]:
                lam = d1[0] / (d1[0] - d2[0])  # weight on the second vertex
                cand = (1 - lam) * p1 + lam * p2
                best = cand if best is None else max(best, cand)
    return best


class TestPhiOpt:
    def test_buy_low_sell_high(self):
        sol = solve_phi_opt(one_stock_spec(), uniform_two_price())
        assert sol.phi_opt == Fraction(1, 2)
        assert all(d == 0 for d in sol.drifts)
        sol.policy.check_simplex()

    def test_constant_price_is_zero(self):
        dist = PriceDistribution(((150,),), (1,))
        sol = solve_phi_opt(one_stock_spec(), dist)
        assert sol.phi_opt == 0

    def test_linear_fees(self):
        spec = one_stock_spec(p_max_cents=300,
                              buy=CostFunction("linear", rate=50),
                              sell=CostFunction("linear", rate=50))
        dist = PriceDistribution(((100,), (300,)),
                                 (Fraction(1, 2), Fraction(1, 2)))
        sol = solve_phi_opt(spec, dist)
        # half the slots sell at 3 less the 0.5 fee, half buy at 1 plus 0.5
        assert sol.phi_opt == Fraction(1, 2)

    def test_nonnegative_always(self, rng):
        for _ in range(10):
            spec = random_small_spec(rng, max_stocks=2, max_mu=2)
            sol = solve_phi_opt(spec, random_dist(rng, spec))
            assert sol.phi_opt >= 0
            assert all(d >= 0 for d in sol.drifts)
            sol.policy.check_simplex()

    def test_matches_vertex_mixing_oracle(self, rng):
        for _ in range(8):
            spec = random_small_spec(rng, max_stocks=1, max_mu=2,
                                     with_budget=False)
            dist = random_dist(rng, spec)
            sol = solve_phi_opt(spec, dist)
            assert sol.phi_opt == deterministic_phi_opt(spec, dist)


class TestRebalance:
    def test_fixed_point(self):
        sol = solve_phi_opt(one_stock_spec(), uniform_two_price())
        again = drift_rebalance(sol)
        assert again.phi_opt == sol.phi_opt
        assert all(d == 0 for d in again.drifts)

    def test_always_buy_policy_thinned_to_nothing(self):
        from lyaptrade.oracles import PonlyPolicy, PonlySolution
        spec = one_stock_spec()
        dist = PriceDistribution(((100,),), (1,))
        buy = TradeDecision((1,), (0,))
        policy = PonlyPolicy(((dist.support[0], ((buy, Fraction(1)),)),))
        sol = PonlySolution(policy, Fraction(-1), (Fraction(1),), spec, dist)
        out = drift_rebalance(sol)
        assert out.drifts == (Fraction(0),)
        acts = out.policy.actions_for((100,))
        assert all(d.buys == (0,) for d, q in acts if q > 0)

    def test_partial_thinning(self):
        # buys twice as often as it sells: keep probability 1/2
        from lyaptrade.oracles import PonlyPolicy, PonlySolution
        spec = one_stock_spec()
        dist = PriceDistribution(((100,), (200,)),
                                 (Fraction(3, 5), Fraction(2, 5)))
        buy = TradeDecision((1,), (0,))
        sell = TradeDecision((0,), (1,))
        policy = PonlyPolicy(((dist.support[0], ((buy, Fraction(1)),)),
                              (dist.support[1], ((sell, Fraction(3, 4)),
                                                 (TradeDecision.zero(1),
                                                  Fraction(1, 4))))))
        from lyaptrade.oracles import _evaluate_policy
        profit, drifts = _evaluate_policy(spec, dist, policy.table)
        sol = PonlySolution(policy, profit, drifts, spec, dist)
        assert drifts[0] == Fraction(3, 10)
        out = drift_rebalance(sol)
        assert out.drifts == (Fraction(0),)
        assert out.phi_opt >= sol.phi_opt

    def test_random_lp_solutions_rebalance_clean(self, rng):
        for _ in range(6):
            spec = random_small_spec(rng, max_stocks=2, max_mu=2)
            sol = solve_phi_opt(spec, random_dist(rng, spec))
            out = drift_rebalance(sol)
            assert all(d == 0 for d in out.drifts)
            assert out.phi_opt >= sol.phi_opt


def naive_lookahead(spec, window):
    """Exhaustive frame enumeration; the lookahead DP's oracle."""
    sets = [enumerate_actions(spec, p).actions for p in window]
    best = 0
    for seq in itertools.product(*sets):
        net = [0] * spec.n_stocks
        profit = 0
        for p, d in zip(window, seq):
            profit += slot_profit(spec, p, d)
            for i in range(spec.n_stocks):
                net[i] += d.buys[i] - d.sells[i]
        if all(v >= 0 for v in net):
            best = max(best, profit)
    return best


class TestLookahead:
    def test_buy_then_sell(self):
        res = lookahead_psi(one_stock_spec(), [(100,), (200,)])
        assert res.psi_cents == 100

    def test_short_then_cover(self):
        res = lookahead_psi(one_stock_spec(), [(200,), (100,)])
        assert res.psi_cents == 100
        assert res.decisions[0].sells == (1,)

    def test_constant_prices(self):
        spec = one_stock_spec(sell=CostFunction("linear", rate=10))
        res = lookahead_psi(spec, [(100,)] * 4)
        assert res.psi_cents == 0

    def test_frame_net_constraint_holds(self, rng):
        for _ in range(10):
            spec = random_small_spec(rng, max_stocks=2, max_mu=2)
            trace = random_trace(rng, spec, 3)
            res = lookahead_psi(spec, list(trace.sequence))
            for i in range(spec.n_stocks):
                net = sum(d.buys[i] - d.sells[i] for d in res.decisions)
                assert net >= 0

    def test_matches_naive_enumeration(self, rng):
        for _ in range(15):
            spec = random_small_spec(rng, max_stocks=2, max_mu=2)
            trace = random_trace(rng, spec, rng.randint(1, 3))
            res = lookahead_psi(spec, list(trace.sequence))
            assert res.psi_cents == naive_lookahead(spec,
                                                    list(trace.sequence))

    def test_state_bound_checked_before_enumeration(self, monkeypatch):
        # A budget couples the stocks into one DP over the joint nets.
        spec = MarketSpec(tuple(StockSpec(i, 3, 200) for i in range(3)),
                          BudgetMode("money", money=1000))

        def fail(*args, **kwargs):
            raise AssertionError("actions enumerated before the state check")
        monkeypatch.setattr(oracles, "_feasible", fail)
        with pytest.raises(CapacityError, match=f"{50 * 301 ** 3} states"):
            lookahead_psi(spec, [(100, 100, 100)] * 50)

    def test_no_budget_frame_is_a_sum_of_one_stock_frames(self, rng):
        # Joint, this frame needs 8 * 49**5 states, far over the cap.
        spec = MarketSpec(tuple(StockSpec(i, 3, 200) for i in range(5)))
        window = [tuple(rng.randrange(0, 201) for _ in range(5))
                  for _ in range(8)]
        res = lookahead_psi(spec, window)
        parts = [lookahead_psi(MarketSpec((StockSpec(0, 3, 200),)),
                               [(p[i],) for p in window])
                 for i in range(5)]
        assert res.psi_cents == sum(r.psi_cents for r in parts) > 0
        for t, d in enumerate(res.decisions):
            assert d.buys == tuple(r.decisions[t].buys[0] for r in parts)
            assert d.sells == tuple(r.decisions[t].sells[0] for r in parts)

    def test_superadditive_over_frames(self, rng):
        for _ in range(10):
            spec = random_small_spec(rng, max_stocks=1, max_mu=3)
            trace = random_trace(rng, spec, 6)
            full = lookahead_psi(spec, list(trace.sequence)).psi_cents
            halves = (lookahead_psi(spec, list(trace.sequence[:3])).psi_cents
                      + lookahead_psi(spec, list(trace.sequence[3:])).psi_cents)
            assert full >= halves


class TestBruteForce:
    def test_matches_composed_solvers(self, rng):
        for _ in range(150):
            spec = random_small_spec(rng, max_stocks=2, max_mu=2)
            params = TraderParams(V=rng.choice((1, 5, 50)))
            prices = tuple(rng.randrange(0, s.p_max + 1) for s in spec.stocks)
            queue = tuple(rng.randrange(0, 6) for _ in spec.stocks)
            solver = SlotSolver(spec, params)
            sells, buys, _, _ = solver.step(prices, queue)
            oracle = brute_force_slot_min(params, spec, prices, queue)
            assert solver.scaled_objective(prices, queue, sells, buys) \
                == solver.scaled_objective(prices, queue, oracle.sells,
                                           oracle.buys)
            assert (buys, sells) == (oracle.buys, oracle.sells)

    @staticmethod
    def _enumeration_reference(params, spec, prices, queue):
        """Score every validated TradeDecision of the enumerated set."""
        solver = SlotSolver(spec, params)
        best_key = best = None
        for d in enumerate_actions(spec, prices, queue=queue).actions:
            key = (solver.scaled_objective(prices, queue, d.sells, d.buys),
                   sum(d.sells) + sum(d.buys), d.sells + d.buys)
            if best_key is None or key < best_key:
                best_key, best = key, d
        return best

    def test_matches_enumeration_reference(self, rng):
        for k in range(200):
            spec = random_small_spec(rng, max_stocks=3, max_mu=2)
            if k % 4 == 0:
                spec = MarketSpec(spec.stocks, BudgetMode(
                    "shares", shares=rng.randint(1, 3)))
            params = params_for(spec, rng.choice((1, 5, 50, Fraction(35, 3))))
            prices = tuple(rng.randrange(0, s.p_max + 1) for s in spec.stocks)
            queue = tuple(rng.randrange(0, 8) for _ in spec.stocks)
            assert brute_force_slot_min(params, spec, prices, queue) \
                == self._enumeration_reference(params, spec, prices, queue)

    def test_zero_prices_with_fees(self):
        spec = one_stock_spec(buy=CostFunction("fixed", fee=300),
                              sell=CostFunction("fixed", fee=300))
        out = brute_force_slot_min(TraderParams(V=5), spec, (0,), (5,))
        assert out == TradeDecision.zero(1)

    def test_single_feasible_action(self):
        spec = one_stock_spec(mu_max=1, p_max_cents=100,
                              budget=BudgetMode("money", money=1),
                              sell=CostFunction("fixed", fee=500))
        out = brute_force_slot_min(TraderParams(V=5), spec, (100,), (0,))
        assert out == TradeDecision.zero(1)
