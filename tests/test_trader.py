"""Per-slot policy: sell/buy solvers, stepping, runs, placeholder shares,
windowed scaling."""

import io
import json
import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest

from lyaptrade import (BudgetMode, CostFunction, MarketSpec, MarkovPriceModel,
                       PriceDistribution, PriceTrace,
                       StockSpec, TradeDecision, TraderParams, Trajectory,
                       compute_theta, config_from_json, queue_band,
                       run_backtest, run_profit, scaled_windows_run,
                       validate_decision)
from lyaptrade.cli import main
from lyaptrade.errors import ConfigError, StructuralError
from lyaptrade.trader import SlotSolver

from conftest import (buy_coeffs, one_stock_spec, random_small_spec,
                      uniform_two_price)
from reference_helpers import real_queue_at, replace, startup_cost


class TestTheta:
    def test_dollar_example(self):
        spec = one_stock_spec(mu_max=2, p_max_cents=1000)
        assert compute_theta(spec, 100) == (1004,)

    def test_cent_example(self):
        spec = one_stock_spec(mu_max=1, p_max_cents=1)
        assert compute_theta(spec, 1) == (Fraction(201, 100),)

    def test_per_stock(self):
        spec = MarketSpec((StockSpec(0, 1, 100), StockSpec(1, 3, 500)))
        assert compute_theta(spec, 10) == (12, 56)

    def test_v_must_be_positive(self):
        with pytest.raises(ConfigError):
            compute_theta(one_stock_spec(), 0)

    def test_band(self):
        spec = one_stock_spec(mu_max=2, p_max_cents=1000)
        assert queue_band(spec, TraderParams(V=100)) == ((2, 1006),)


class TestParamsHash:
    """Params hash their V and theta once per process, not on every
    lookup of the caches keyed by them, as a spec does."""

    @staticmethod
    def params():
        return TraderParams(V=Fraction(101, 3), theta=("7/2", 5),
                            initial_queue=(1, 2))

    def test_hash_is_kept_once_computed(self, monkeypatch):
        params = self.params()
        first = hash(params)
        monkeypatch.setattr(Fraction, "__hash__", None)  # unhashable now
        assert hash(params) == first

    def test_pickled_params_rehash(self):
        # String hashes differ between processes, so the kept hash is
        # not pickled with the params.
        params = self.params()
        hash(params)
        again = pickle.loads(pickle.dumps(params))
        assert "_hash" in vars(params) and "_hash" not in vars(again)
        assert again == params and hash(again) == hash(params)


class TestSell:
    def test_below_threshold_never_sells(self):
        # queue below theta - V*p_max blocks every sale
        spec = one_stock_spec(mu_max=2, p_max_cents=200)
        params = TraderParams(V=10)  # theta = 24, threshold = 4
        assert SlotSolver(spec, params).sell((200,), (3,)) == (0,)

    def test_high_queue_sells_cap(self):
        spec = one_stock_spec(mu_max=3, p_max_cents=100)
        params = TraderParams(V=10, theta=(10,))
        # Q = theta + mu_max, p = p_max: coefficient is negative
        assert SlotSolver(spec, params).sell((100,), (13,)) == (3,)

    def test_zero_price_positive_coeff(self):
        spec = one_stock_spec(mu_max=3, p_max_cents=100)
        params = TraderParams(V=10)
        assert SlotSolver(spec, params).sell((0,), (5,)) == (0,)

    def test_ownership_caps_sale(self):
        spec = one_stock_spec(mu_max=3, p_max_cents=100)
        params = TraderParams(V=10, theta=(1,))
        assert SlotSolver(spec, params).sell((100,), (2,)) == (2,)

    def test_fee_cover_filter(self):
        spec = one_stock_spec(mu_max=1, p_max_cents=100,
                              sell=CostFunction("fixed", fee=50))
        params = TraderParams(V=10, theta=(1,))
        assert SlotSolver(spec, params).sell((40,), (5,)) == (0,)


class TestBuyExact:
    def test_above_theta_never_buys(self):
        spec = one_stock_spec(mu_max=2, p_max_cents=200)
        params = TraderParams(V=10)  # theta = 24
        assert SlotSolver(spec, params).buy((0,), (25,)) == (0,)

    def test_cheap_price_buys_cap(self):
        spec = one_stock_spec(mu_max=2, p_max_cents=200)
        params = TraderParams(V=10)
        assert SlotSolver(spec, params).buy((100,), (2,)) == (2,)

    def test_budget_blocks_purchase(self):
        spec = one_stock_spec(mu_max=2, p_max_cents=200,
                              budget=BudgetMode("money", money=1))
        params = TraderParams(V=10)
        assert SlotSolver(spec, params).buy((100,), (2,)) == (0,)

    def test_matches_enumeration(self, rng):
        from lyaptrade import enumerate_actions
        for _ in range(60):
            spec = random_small_spec(rng, max_stocks=2, max_mu=2)
            params = TraderParams(V=rng.choice((1, 5, 20)))
            solver = SlotSolver(spec, params)
            prices = tuple(rng.randrange(0, s.p_max + 1) for s in spec.stocks)
            queue = tuple(rng.randrange(0, 8) for _ in spec.stocks)
            got = solver.buy(prices, queue)
            coeff = buy_coeffs(solver, prices, queue)
            best = min(
                (sum(w * a for w, a in zip(coeff, d.buys))
                 + solver.terms.k * sum(s.buy_cost(a) for s, a
                                        in zip(spec.stocks, d.buys)),
                 sum(d.buys), d.buys)
                for d in enumerate_actions(spec, prices).actions)
            ours = (sum(w * a for w, a in zip(coeff, got))
                    + solver.terms.k * sum(s.buy_cost(a) for s, a
                                           in zip(spec.stocks, got)),
                    sum(got), got)
            assert ours == best

    def test_matches_reference_dp(self, rng):
        def budget_for(stocks):
            full = sum(s.mu_max * s.p_max for s in stocks)
            return BudgetMode("money", money=rng.choice(
                (full, rng.randrange(1, full + 1), rng.randrange(1, 150))))

        branches = {"slack": 0, "dp": 0}
        for _ in range(400):
            spec = _random_buy_market(rng, budget_for)
            params = TraderParams(V=rng.choice((1, 5, 50, Fraction(35, 3))))
            solver = SlotSolver(spec, params)
            prices = tuple(0 if rng.random() < 0.2
                           else rng.randrange(0, s.p_max + 1)
                           for s in spec.stocks)
            queue = tuple(rng.randrange(0, 12) for _ in spec.stocks)
            coeffs = buy_coeffs(solver, prices, queue)
            free = _unconstrained_min(solver, coeffs)
            fits = sum(a * p for a, p in zip(free, prices)) \
                <= spec.budget.money
            branches["slack" if fits else "dp"] += 1
            assert solver.buy(prices, queue) == _reference_dp(
                solver, coeffs, prices, spec.budget.money)
        assert min(branches.values()) >= 50, branches


def _reference_dp(solver, coeffs, sizes, limit) -> tuple:
    """Unpruned budget DP over every quantity of every stock, no early
    return: lexicographic minimum of (objective, shares, buy vector)
    subject to sum_n sizes[n] * a_n <= limit."""
    k, buy_cost = solver.terms.k, solver.terms.buy_cost
    dp = {0: (0, 0, ())}
    for n, w in enumerate(coeffs):
        new = {}
        for used, (obj, shares, vec) in dp.items():
            for a in range(solver.mu_max[n] + 1):
                u = used + a * sizes[n]
                if u > limit:
                    continue
                cand = (obj + w * a + k * buy_cost[n][a],
                        shares + a, vec + (a,))
                if u not in new or cand < new[u]:
                    new[u] = cand
        dp = new
    return min(dp.values())[2]


def _unconstrained_min(solver, coeffs) -> tuple:
    """Per-stock minimiser of w*a + k*cost(a), lowest a on ties."""
    k, buy_cost = solver.terms.k, solver.terms.buy_cost
    return tuple(min(range(solver.mu_max[n] + 1),
                     key=lambda a: (w * a + k * buy_cost[n][a], a))
                 for n, w in enumerate(coeffs))


def _random_buy_market(rng, budget_for) -> MarketSpec:
    """1-3 stocks with zero, linear, fixed or non-concave table buy
    costs; budget_for(stocks) picks the budget."""
    stocks = []
    for i in range(rng.randint(1, 3)):
        mu = rng.randint(1, 3)
        p_max = rng.choice((100, 200, 300))
        kind = rng.choice(("zero", "linear", "fixed", "fixed", "table"))
        if kind == "linear":
            cost = CostFunction("linear", rate=rng.randrange(0, 40))
        elif kind == "fixed":
            cost = CostFunction("fixed", fee=rng.randrange(1, 150))
        elif kind == "table":
            steps = [rng.randrange(0, 60) for _ in range(mu)]
            cost = CostFunction("table", values=tuple(
                sum(steps[:j]) for j in range(mu + 1)))
        else:
            cost = CostFunction()
        stocks.append(StockSpec(i, mu, p_max, buy_cost=cost))
    return MarketSpec(tuple(stocks), budget_for(stocks))


class TestBuyGreedy:
    def test_nonnegative_coeffs_buy_nothing(self):
        spec = one_stock_spec(mu_max=2, p_max_cents=100)
        params = TraderParams(V=10, theta=(1,), buy_solver="greedy")
        assert SlotSolver(spec, params).buy((100,), (5,)) == (0,)

    def test_picks_smallest_ratio_first(self):
        spec = MarketSpec((StockSpec(0, 1, 100), StockSpec(1, 1, 100)),
                          BudgetMode("money", money=100))
        # coefficients (Q - theta + V p) = (-10, -2) at p = $1 each
        params = TraderParams(V=1, theta=(12, 4), buy_solver="greedy")
        assert SlotSolver(spec, params).buy((100, 100), (1, 1)) == (1, 0)

    def test_single_stock_matches_exact_without_overshoot(self, rng):
        for _ in range(50):
            spec = one_stock_spec(mu_max=rng.randint(1, 3),
                                  p_max_cents=rng.choice((100, 200)))
            params = TraderParams(V=rng.choice((1, 10)))
            prices = (rng.randrange(1, spec.stocks[0].p_max + 1),)
            queue = (rng.randrange(0, 6),)
            greedy = SlotSolver(spec, replace(params, buy_solver="greedy"))
            assert greedy.buy(prices, queue) \
                == SlotSolver(spec, params).buy(prices, queue)

    def test_zero_price_taken_immediately(self):
        spec = one_stock_spec(mu_max=3, p_max_cents=100,
                              budget=BudgetMode("money", money=1))
        params = TraderParams(V=1, theta=(100,), buy_solver="greedy")
        assert SlotSolver(spec, params).buy((0,), (0,)) == (3,)

    def test_requires_concave_costs(self):
        spec = one_stock_spec(
            mu_max=2, p_max_cents=100,
            buy=CostFunction("table", values=(0, 1, 10)))
        with pytest.raises(ConfigError):
            SlotSolver(spec, TraderParams(V=1, buy_solver="greedy"))


class TestBuyShareBudget:
    def test_slack_budget_reduces_to_per_stock(self):
        stocks = (StockSpec(0, 2, 200), StockSpec(1, 2, 200))
        loose = MarketSpec(stocks, BudgetMode("shares", shares=4))
        free = MarketSpec(stocks)
        params = TraderParams(V=10)
        prices, queue = (100, 50), (2, 2)
        got = SlotSolver(loose, params).buy(prices, queue)
        assert got == SlotSolver(free, TraderParams(V=10)).buy(prices, queue)

    def test_fills_most_negative_first(self):
        stocks = (StockSpec(0, 2, 200,
                            buy_cost=CostFunction("linear", rate=10)),
                  StockSpec(1, 2, 200))
        spec = MarketSpec(stocks, BudgetMode("shares", shares=2))
        params = TraderParams(V=1, theta=(10, 10))
        # weights: (2 - 10 + 1 + 0.1, 2 - 10 + 0.5) -> stock 1 first
        got = SlotSolver(spec, params).buy((100, 50), (2, 2))
        assert got == (0, 2)

    def test_tight_budget(self):
        spec = MarketSpec((StockSpec(0, 3, 200),),
                          BudgetMode("shares", shares=1))
        params = TraderParams(V=10)
        assert SlotSolver(spec, params).buy((100,), (0,)) == (1,)

    def test_tied_weights_break_like_the_oracle(self):
        # Both stocks weigh the same per share: (1, 2) and (2, 1) tie on
        # objective and shares, and the lower buy vector wins.
        from lyaptrade.oracles import brute_force_slot_min
        spec = MarketSpec((StockSpec(0, 2, 200), StockSpec(1, 2, 200)),
                          BudgetMode("shares", shares=3))
        params = TraderParams(V=10)
        prices, queue = (100, 100), params.resolved_initial_queue(spec)
        sells, buys, _, _ = SlotSolver(spec, params).step(prices, queue)
        assert (sells, buys) == ((0, 0), (1, 2))
        oracle = brute_force_slot_min(params, spec, prices, queue)
        assert (oracle.sells, oracle.buys) == (sells, buys)

    def test_zero_and_linear_costs_match_oracle(self):
        from lyaptrade.oracles import brute_force_slot_min
        rng = random.Random(1313)
        ties = 0
        for _ in range(300):
            # Shared trade caps, price caps and rates make tied weights
            # common.
            n, mu = rng.randint(2, 3), rng.randint(1, 3)
            rate = rng.choice((0, 10))
            stocks = tuple(StockSpec(
                i, mu, 200, buy_cost=CostFunction("linear", rate=rate)
                if rate and rng.random() < 0.7 else CostFunction())
                for i in range(n))
            spec = MarketSpec(stocks, BudgetMode(
                "shares", shares=rng.randint(1, n * mu - 1)))
            params = TraderParams(V=rng.choice((1, 5, 10)))
            prices = tuple(rng.choice((0, 50, 100)) for _ in stocks)
            queue = tuple(rng.randrange(0, 8) for _ in stocks)
            sells, buys, _, _ = SlotSolver(spec, params).step(prices, queue)
            oracle = brute_force_slot_min(params, spec, prices, queue)
            assert (sells, buys) == (oracle.sells, oracle.buys)
            ties += len(set(prices)) < n and sum(buys) == spec.budget.shares
        assert ties >= 50, ties

    def test_table_cost_dp_path(self, rng):
        from lyaptrade import enumerate_actions
        spec = MarketSpec(
            (StockSpec(0, 2, 200,
                       buy_cost=CostFunction("table", values=(0, 10, 40))),
             StockSpec(1, 2, 200)),
            BudgetMode("shares", shares=3))
        params = TraderParams(V=5)
        solver = SlotSolver(spec, params)
        for _ in range(30):
            prices = tuple(rng.randrange(0, 201) for _ in range(2))
            queue = tuple(rng.randrange(0, 8) for _ in range(2))
            got = solver.buy(prices, queue)
            coeff = buy_coeffs(solver, prices, queue)
            best = min(
                (sum(w * a for w, a in zip(coeff, d.buys))
                 + solver.terms.k * sum(s.buy_cost(a) for s, a
                                        in zip(spec.stocks, d.buys)),
                 sum(d.buys), d.buys)
                for d in enumerate_actions(spec, prices).actions)
            assert best[2] == got


    def test_general_costs_match_reference_dp(self, rng):
        def budget_for(stocks):
            total = sum(s.mu_max for s in stocks)
            return BudgetMode("shares", shares=rng.randint(1, total))

        branches = {"slack": 0, "dp": 0}
        for _ in range(400):
            spec = _random_buy_market(rng, budget_for)
            params = TraderParams(V=rng.choice((1, 5, 50, Fraction(35, 3))))
            solver = SlotSolver(spec, params)
            prices = tuple(0 if rng.random() < 0.2
                           else rng.randrange(0, s.p_max + 1)
                           for s in spec.stocks)
            queue = tuple(rng.randrange(0, 12) for _ in spec.stocks)
            coeffs = buy_coeffs(solver, prices, queue)
            fits = sum(_unconstrained_min(solver, coeffs)) \
                <= spec.budget.shares
            branches["slack" if fits else "dp"] += 1
            ones = (1,) * spec.n_stocks
            assert solver.buy(prices, queue) == _reference_dp(
                solver, coeffs, ones, spec.budget.shares)
        assert min(branches.values()) >= 50, branches

class TestStep:
    def test_degenerate_prices_yield_zero_decision(self):
        spec = one_stock_spec(mu_max=2, p_max_cents=100)
        params = TraderParams(V=10, theta=(5,))
        sells, buys, profit, queue = SlotSolver(spec, params).step((0,), (5,))
        assert buys == sells == (0,) and profit == 0
        assert queue == (5,)

    def test_emitted_decision_is_feasible(self, rng):
        for _ in range(40):
            spec = random_small_spec(rng)
            params = TraderParams(V=rng.choice((5, 50)))
            prices = tuple(rng.randrange(0, s.p_max + 1) for s in spec.stocks)
            q0 = tuple(s.mu_max for s in spec.stocks)
            sells, buys, _, _ = SlotSolver(spec, params).step(prices, q0)
            assert validate_decision(spec, prices, q0,
                                     TradeDecision(buys, sells)).ok

    def test_no_sale_at_band_floor(self):
        spec = one_stock_spec(mu_max=2, p_max_cents=200)
        params = TraderParams(V=50)
        sells, _, _, _ = SlotSolver(spec, params).step((200,), (2,))
        assert sells == (0,)


class TestRuns:
    def test_single_slot(self):
        spec = one_stock_spec()
        traj = run_backtest(spec, TraderParams(V=50), uniform_two_price(),
                            1, seed=4)
        assert traj.n_slots == 1

    @pytest.mark.parametrize("queue", [(1,), (1, 2, 3)])
    def test_initial_queue_needs_one_entry_per_stock(self, queue):
        spec = MarketSpec((StockSpec(0, 1, 200), StockSpec(1, 1, 200)))
        dist = PriceDistribution(((100, 100),), (Fraction(1),))
        with pytest.raises(StructuralError, match="initial_queue"):
            run_backtest(spec, TraderParams(V=50, initial_queue=queue),
                         dist, 3)

    def test_determinism(self):
        spec = one_stock_spec()
        a = run_backtest(spec, TraderParams(V=50), uniform_two_price(),
                         500, seed=11)
        b = run_backtest(spec, TraderParams(V=50), uniform_two_price(),
                         500, seed=11)
        assert (a.prices, a.buys, a.sells, a.queues, a.profits) == \
            (b.prices, b.buys, b.sells, b.queues, b.profits)

    def test_run_profit_matches_backtest(self, rng):
        fee = CostFunction("fixed", fee=7)
        rate = CostFunction("linear", rate=3)
        three = MarketSpec((StockSpec(0, 2, 300, fee, rate),
                            StockSpec(1, 3, 250, rate, fee),
                            StockSpec(2, 2, 400, fee, fee)),
                           BudgetMode("money", money=600))
        markov = MarkovPriceModel(((100,), (200,), (150,)),
                                  ((0.5, 0.3, 0.2), (0.1, 0.6, 0.3),
                                   (0.4, 0.4, 0.2)))
        cases = [
            (one_stock_spec(), uniform_two_price()),
            (one_stock_spec(mu_max=2), markov),
            (one_stock_spec(mu_max=2),
             PriceTrace(tuple((rng.randrange(0, 201),) for _ in range(2000)))),
            (three, PriceDistribution(
                tuple(tuple(rng.randrange(0, s.p_max + 1)
                            for s in three.stocks) for _ in range(6)),
                (Fraction(1, 6),) * 6)),
        ]
        for spec, source in cases:
            traj = run_backtest(spec, TraderParams(V=50), source, 2000,
                                seed=12)
            total, final = run_profit(spec, TraderParams(V=50), source,
                                      2000, seed=12)
            assert total == traj.cumulative_profit()
            assert final == traj.queue_at(traj.n_slots)

    def test_shared_solver_equals_fresh_solver(self):
        fee = CostFunction("fixed", fee=7)
        spec = MarketSpec((StockSpec(0, 2, 300, fee, CostFunction()),
                           StockSpec(1, 2, 200, CostFunction(), fee)),
                          BudgetMode("money", money=350))
        params = TraderParams(V=20)
        markov = MarkovPriceModel(((100, 200), (250, 50), (150, 150)),
                                  ((0.5, 0.3, 0.2), (0.1, 0.6, 0.3),
                                   (0.4, 0.4, 0.2)))
        shared = SlotSolver(spec, params)
        for stream in range(4):
            traj = run_backtest(spec, params, markov, 600, seed=5,
                                stream=stream, solver=shared)
            fresh = run_backtest(spec, params, markov, 600, seed=5,
                                 stream=stream)
            assert (traj.prices, traj.buys, traj.sells, traj.queues,
                    traj.profits) == (fresh.prices, fresh.buys, fresh.sells,
                                      fresh.queues, fresh.profits)
            assert run_profit(spec, params, markov, 600, seed=5,
                              stream=stream, solver=shared) \
                == run_profit(spec, params, markov, 600, seed=5,
                              stream=stream)
        # Later streams replay pairs the first ones solved.
        assert list(shared.memo) == [markov.states]
        _, _, _, _, succ, _ = shared.memo[markov.states]
        assert 0 < sum(s >= 0 for s in succ) < 600

    def test_walk_table_links_each_solved_cell_to_its_next_queue(self, rng):
        spec = MarketSpec((StockSpec(0, 2, 300, CostFunction("fixed", fee=7),
                                     CostFunction("linear", rate=2)),
                           StockSpec(1, 3, 200)),
                          BudgetMode("money", money=350))
        params = TraderParams(V=20)
        iid = PriceDistribution(
            tuple(tuple(rng.randrange(0, s.p_max + 1) for s in spec.stocks)
                  for _ in range(5)), (Fraction(1, 5),) * 5)
        markov = MarkovPriceModel(((100, 200), (250, 50), (150, 150)),
                                  ((0.5, 0.3, 0.2), (0.1, 0.6, 0.3),
                                   (0.4, 0.4, 0.2)))
        shared = SlotSolver(spec, params)
        for source, support in ((iid, iid.support), (markov, markov.states)):
            k = len(support)
            for stream in range(4):
                run = (run_backtest, run_profit)[stream % 2]
                run(spec, params, source, 300, seed=3, stream=stream,
                    solver=shared)
                nodes, queues, recs, gains, succ, records = \
                    shared.memo[support]
                assert len(recs) == len(gains) == len(succ) \
                    == k * len(queues)
                assert nodes == {q: j * k for j, q in enumerate(queues)}
                for i, (rec, gain, nxt) in enumerate(zip(recs, gains, succ)):
                    if rec is None:
                        assert nxt == -1 and gain == 0
                    else:
                        assert nxt % k == 0
                        assert records[rec] is rec and gain is rec[2]
                        assert (*rec, queues[nxt // k]) == shared.step(
                            support[i % k], queues[i // k])
            # Later streams replay cells the first ones solved.
            assert 0 < sum(nxt >= 0 for nxt in succ) < 4 * 300

    def test_book_rows_are_the_walk_tables_shared_records(self):
        spec = MarketSpec((StockSpec(0, 2, 300, CostFunction("fixed", fee=7),
                                     CostFunction("linear", rate=2)),
                           StockSpec(1, 3, 200)),
                          BudgetMode("money", money=350))
        params = TraderParams(V=20)
        iid = PriceDistribution(((100, 200), (300, 0), (50, 150), (250, 50)),
                                (Fraction(1, 4),) * 4)
        markov = MarkovPriceModel(((100, 200), (250, 50), (150, 150)),
                                  ((0.5, 0.3, 0.2), (0.1, 0.6, 0.3),
                                   (0.4, 0.4, 0.2)))
        shared = SlotSolver(spec, params)
        bound = 1
        for s in spec.stocks:
            bound *= (s.mu_max + 1) ** 2
        for source, support in ((iid, iid.support), (markov, markov.states)):
            k = len(support)
            for stream in range(3):
                traj = run_backtest(spec, params, source, 400, seed=8,
                                    stream=stream, solver=shared)
                run_profit(spec, params, source, 400, seed=8,
                           stream=stream + 3, solver=shared)
                nodes, queues, recs, gains, succ, records = \
                    shared.memo[support]
                for t, p in enumerate(traj.prices):
                    i = nodes[traj.queue_at(t)] + support.index(p)
                    rec = recs[i]
                    assert records[rec] is rec
                    assert traj.sells[t] is rec[0]
                    assert traj.buys[t] is rec[1]
                    assert traj.profits[t] is gains[i] is rec[2]
                    assert traj.queues[t] is queues[succ[i] // k]
                assert 0 < len(records) <= k * bound

    def test_walk_table_holds_few_bytes_per_solved_cell(self):
        # The iid_verify benchmark market: three stocks, so queue vectors
        # rarely repeat and most slots solve a new cell.
        fixed, linear = CostFunction("fixed", fee=5), \
            CostFunction("linear", rate=2)
        spec = MarketSpec((StockSpec(0, 2, 300, fixed, linear),
                           StockSpec(1, 2, 250, linear, fixed),
                           StockSpec(2, 2, 400, fixed, fixed)),
                          BudgetMode("money", money=600))
        params = TraderParams(V=50)
        iid = PriceDistribution(
            ((100, 250, 150), (300, 50, 200), (200, 100, 400),
             (150, 200, 50), (250, 150, 300), (50, 75, 250)),
            (Fraction(1, 6),) * 6)
        run_profit(spec, params, iid, 10)   # imports and caches, untraced
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            solver = SlotSolver(spec, params)
            for stream in range(2):
                run_profit(spec, params, iid, 20_000, seed=1, stream=stream,
                           solver=solver)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        _, _, _, _, succ, _ = solver.memo[iid.support]
        solved = sum(nxt >= 0 for nxt in succ)
        assert solved > 20_000
        assert held / solved < 250, (held, solved)

    def test_mismatched_solver_rejected(self):
        spec = one_stock_spec()
        solver = SlotSolver(spec, TraderParams(V=50))
        with pytest.raises(StructuralError, match="different"):
            run_profit(spec, TraderParams(V=40), uniform_two_price(), 10,
                       solver=solver)
        with pytest.raises(StructuralError, match="different"):
            run_backtest(one_stock_spec(mu_max=2), TraderParams(V=50),
                         uniform_two_price(), 10, solver=solver)

    def test_trace_leaves_shared_memo_empty(self, rng):
        spec = random_small_spec(rng)
        params = TraderParams(V=50)
        trace = PriceTrace(tuple(
            tuple(rng.randrange(0, s.p_max + 1) for s in spec.stocks)
            for _ in range(500)))
        shared = SlotSolver(spec, params)
        for _ in range(2):
            traj = run_backtest(spec, params, trace, 500, solver=shared)
            fresh = run_backtest(spec, params, trace, 500)
            assert (traj.buys, traj.sells, traj.queues, traj.profits) \
                == (fresh.buys, fresh.sells, fresh.queues, fresh.profits)
            assert run_profit(spec, params, trace, 500, solver=shared) \
                == (fresh.cumulative_profit(), fresh.queue_at(500))
        assert shared.memo == {}

    def test_tables_hold_at_most_one_entry_per_price_and_queue(self):
        rng = random.Random(2009)
        spec = MarketSpec(
            (StockSpec(0, 2, 300, CostFunction("fixed", fee=5),
                       CostFunction("linear", rate=2)),
             StockSpec(1, 3, 200, CostFunction("linear", rate=1),
                       CostFunction("fixed", fee=4))),
            BudgetMode("money", money=500))
        params = TraderParams(V=20)
        horizon = 200_000
        trace = PriceTrace(tuple((rng.randrange(0, 301), rng.randrange(0, 201))
                                 for _ in range(horizon)))
        solver = SlotSolver(spec, params)
        traj = run_backtest(spec, params, trace, horizon, solver=solver)
        visited = [set(column) for column in zip(
            traj.initial_queue, *traj.queues[:-1])]
        assert solver.memo == {}
        for s, table, seen in zip(spec.stocks, solver.tables, visited):
            assert {v for v, _ in table} == seen
            assert all(0 <= p <= s.p_max for _, p in table)
            assert len(table) <= (s.p_max + 1) * len(seen)

    def test_trace_checked_up_to_the_horizon(self):
        spec = one_stock_spec()
        early = PriceTrace(((100,), (201,), (100,)))
        with pytest.raises(StructuralError,
                           match="price 201 exceeds cap 200 for stock 0"):
            run_backtest(spec, TraderParams(V=50), early, 2)
        late = PriceTrace(((100,), (100,), (201,)))
        assert run_backtest(spec, TraderParams(V=50), late, 2).n_slots == 2
        with pytest.raises(StructuralError, match="exceeds cap"):
            run_profit(spec, TraderParams(V=50), late, 3)

    def test_short_trace_rejected(self):
        trace = PriceTrace(((100,), (100,)))
        with pytest.raises(StructuralError):
            run_backtest(one_stock_spec(), TraderParams(V=50), trace, 3)

    def test_fees_suppress_zero_price_trading(self):
        # fee large enough that V*fee outweighs the worst drift reward
        spec = one_stock_spec(buy=CostFunction("fixed", fee=300),
                              sell=CostFunction("fixed", fee=300))
        trace = PriceTrace(((0,),) * 50)
        traj = run_backtest(spec, TraderParams(V=5), trace, 50)
        assert traj.cumulative_profit() == 0
        assert all(b == (0,) and s == (0,) for b, s
                   in zip(traj.buys, traj.sells))

    def test_csv_round_trip(self):
        spec = one_stock_spec()
        params = TraderParams(V=50)
        traj = run_backtest(spec, params, uniform_two_price(), 40, seed=3)
        buf = io.StringIO()
        traj.to_csv(buf)
        buf.seek(0)
        again = Trajectory.from_csv(buf, spec, params)
        assert again.prices == traj.prices and again.profits == traj.profits
        again.check_dynamics()

    def test_check_dynamics_catches_corruption(self):
        traj = run_backtest(one_stock_spec(), TraderParams(V=50),
                            uniform_two_price(), 30, seed=3)
        traj.queues[10] = (traj.queues[10][0] + 1,)
        with pytest.raises(StructuralError):
            traj.check_dynamics()

    @pytest.mark.parametrize("book", ["queues", "sells", "buys"])
    @pytest.mark.parametrize("width", [1, 3])
    def test_row_of_wrong_width_names_its_slot(self, book, width):
        # Per-stock columns would cut every row to the shortest one.
        from lyaptrade.analysis import check_frame_drift, verify_queue_band
        spec = MarketSpec((StockSpec(0, 1, 200), StockSpec(1, 1, 200)))
        trace = PriceTrace(tuple((50 * (t % 4), 60) for t in range(30)))
        checks = (lambda traj: traj.check_dynamics(), verify_queue_band,
                  lambda traj: check_frame_drift(traj, 4))
        for check in checks:
            traj = run_backtest(spec, TraderParams(V=50), trace, 30)
            getattr(traj, book)[12] = (0,) * width
            with pytest.raises(StructuralError,
                               match=f"^slot 12: {book[:-1]} row has "
                                     f"{width} entries, expected 2$"):
                check(traj)
            del getattr(traj, book)[12:]
            with pytest.raises(StructuralError,
                               match=f"^12 {book[:-1]} rows for 30 slots$"):
                check(traj)
            traj.initial_queue = (1,)
            with pytest.raises(StructuralError,
                               match="^initial queue has 1 entries$"):
                check(traj)


class TestPlaceholder:
    def test_zero_holdings_start_at_band_floor(self):
        spec = one_stock_spec(mu_max=2)
        params = TraderParams(V=50, placeholder=True)
        assert params.resolved_initial_queue(spec) == (2,)

    def test_out_of_band_holdings_rejected(self):
        spec = one_stock_spec(mu_max=1, p_max_cents=100)
        params = TraderParams(V=1, initial_queue=(100,), placeholder=True)
        with pytest.raises(StructuralError, match=r"outside \[0, 3\]"):
            params.resolved_initial_queue(spec)

    def test_fake_shares_never_sold(self):
        spec = one_stock_spec(mu_max=2)
        params = TraderParams(V=20, placeholder=True)
        traj = run_backtest(spec, params, uniform_two_price(), 2000, seed=6)
        for t in range(traj.n_slots):
            real = real_queue_at(traj, t)
            assert all(m <= r for m, r in zip(traj.sells[t], real))
            assert all(r >= 0 for r in real)

    def test_no_startup_purchase_posted(self):
        spec = one_stock_spec(mu_max=2)
        plain = run_backtest(spec, TraderParams(V=20), uniform_two_price(),
                             500, seed=8)
        wrapped = run_backtest(spec, TraderParams(V=20, placeholder=True),
                               uniform_two_price(), 500, seed=8)
        assert wrapped.cumulative_profit() == plain.cumulative_profit()
        assert startup_cost(spec, plain.prices[0]) > 0

    def test_actual_holdings_in_library_and_cli(self, tmp_path):
        # initial_queue holds the actual shares in both; the fake ones
        # are added on top, so the real holdings never go negative.
        doc = {"market": {"stocks": [{"mu_max": 2, "p_max": "3.00"},
                                     {"mu_max": 1, "p_max": "2.00"}],
                          "budget": {"mode": "none"}},
               "trader": {"V": "20", "initial_queue": [1, 0],
                          "placeholder": True},
               "source": {"kind": "iid",
                          "support": [["1.00", "2.00"], ["3.00", "0.50"]],
                          "probs": ["1/2", "1/2"]},
               "horizon": 300, "seed": 5, "write_trajectories": True}
        cfg = config_from_json(doc)
        traj = run_backtest(cfg.market,
                            TraderParams(V=20, initial_queue=(1, 0),
                                         placeholder=True),
                            cfg.source.dist, 300, seed=5)
        assert traj.queue_at(0) == (3, 1)
        assert all(min(real_queue_at(traj, t)) >= 0
                   for t in range(traj.n_slots + 1))
        (tmp_path / "config.json").write_text(json.dumps(doc))
        assert main(["run", "--config", str(tmp_path / "config.json"),
                     "--out", str(tmp_path / "out")]) == 0
        buf = io.StringIO()
        traj.to_csv(buf)
        assert (tmp_path / "out" / "trajectory_0.csv").read_text() \
            == buf.getvalue()


class TestScaledWindows:
    def test_beta_zero_keeps_scale_flat(self):
        spec = one_stock_spec()
        out = scaled_windows_run(spec, TraderParams(V=20), 0, 4, 25, 3,
                                 uniform_two_price(), seed=2)
        assert [scale for _, scale in out] == [1, 1, 1]

    def test_loss_window_does_not_scale(self):
        # constant price with a buy fee: the policy never profits
        spec = one_stock_spec(buy=CostFunction("linear", rate=90))
        trace = PriceTrace(((100,),) * 200)
        out = scaled_windows_run(spec, TraderParams(V=20), Fraction(1, 10),
                                 4, 25, 2, trace, seed=2)
        assert out[0][0] <= 0 and out[1][1] == 1

    def test_profitable_windows_scale_up(self):
        spec = one_stock_spec()
        out = scaled_windows_run(spec, TraderParams(V=20), Fraction(1, 10),
                                 4, 50, 4, uniform_two_price(), seed=2)
        assert all(q > 0 for q, _ in out)
        scales = [s for _, s in out]
        assert all(b > a for a, b in zip(scales, scales[1:]))
