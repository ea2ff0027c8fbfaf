"""Per-slot policy: sell/buy solvers, stepping, runs, placeholder shares,
windowed scaling."""

import io
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from lyaptrade import (BudgetMode, CostFunction, MarketSpec, MarkovPriceModel,
                       PriceDistribution, PriceTrace,
                       StockSpec, TradeDecision, TraderParams, Trajectory,
                       compute_theta, placeholder_wrap, queue_band,
                       run_backtest, run_profit, scaled_windows_run,
                       startup_cost, validate_decision)
from lyaptrade.errors import ConfigError, StructuralError
from lyaptrade.trader import SlotSolver, _slots

from conftest import (buy_coeffs, one_stock_spec, random_small_spec,
                      uniform_two_price)


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
                 + solver.k * sum(s.buy_cost(a) for s, a
                                  in zip(spec.stocks, d.buys)),
                 sum(d.buys), d.buys)
                for d in enumerate_actions(spec, prices).actions)
            ours = (sum(w * a for w, a in zip(coeff, got))
                    + solver.k * sum(s.buy_cost(a) for s, a
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
    dp = {0: (0, 0, ())}
    for n, w in enumerate(coeffs):
        new = {}
        for used, (obj, shares, vec) in dp.items():
            for a in range(solver.mu_max[n] + 1):
                u = used + a * sizes[n]
                if u > limit:
                    continue
                cand = (obj + w * a + solver.k * solver.buy_cost[n][a],
                        shares + a, vec + (a,))
                if u not in new or cand < new[u]:
                    new[u] = cand
        dp = new
    return min(dp.values())[2]


def _unconstrained_min(solver, coeffs) -> tuple:
    """Per-stock minimiser of w*a + k*cost(a), lowest a on ties."""
    return tuple(min(range(solver.mu_max[n] + 1),
                     key=lambda a: (w * a + solver.k * solver.buy_cost[n][a],
                                    a))
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
        params = TraderParams(V=10, buy_solver="share_budget")
        prices, queue = (100, 50), (2, 2)
        got = SlotSolver(loose, params).buy(prices, queue)
        assert got == SlotSolver(free, TraderParams(V=10)).buy(prices, queue)

    def test_fills_most_negative_first(self):
        stocks = (StockSpec(0, 2, 200,
                            buy_cost=CostFunction("linear", rate=10)),
                  StockSpec(1, 2, 200))
        spec = MarketSpec(stocks, BudgetMode("shares", shares=2))
        params = TraderParams(V=1, theta=(10, 10), buy_solver="share_budget")
        # weights: (2 - 10 + 1 + 0.1, 2 - 10 + 0.5) -> stock 1 first
        got = SlotSolver(spec, params).buy((100, 50), (2, 2))
        assert got == (0, 2)

    def test_tight_budget(self):
        spec = MarketSpec((StockSpec(0, 3, 200),),
                          BudgetMode("shares", shares=1))
        params = TraderParams(V=10, buy_solver="share_budget")
        assert SlotSolver(spec, params).buy((100,), (0,)) == (1,)

    def test_table_cost_dp_path(self, rng):
        from lyaptrade import enumerate_actions
        spec = MarketSpec(
            (StockSpec(0, 2, 200,
                       buy_cost=CostFunction("table", values=(0, 10, 40))),
             StockSpec(1, 2, 200)),
            BudgetMode("shares", shares=3))
        params = TraderParams(V=5, buy_solver="share_budget")
        solver = SlotSolver(spec, params)
        for _ in range(30):
            prices = tuple(rng.randrange(0, 201) for _ in range(2))
            queue = tuple(rng.randrange(0, 8) for _ in range(2))
            got = solver.buy(prices, queue)
            coeff = buy_coeffs(solver, prices, queue)
            best = min(
                (sum(w * a for w, a in zip(coeff, d.buys))
                 + solver.k * sum(s.buy_cost(a) for s, a
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
            if all(s.buy_cost.kind in ("zero", "linear")
                   for s in spec.stocks):
                continue  # the constant-weight fill, not the DP path
            params = TraderParams(V=rng.choice((1, 5, 50, Fraction(35, 3))),
                                  buy_solver="share_budget")
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
        _, cells = shared.memo[markov.states]
        solved = sum(c is not None for c in cells)
        assert 0 < solved < 600

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
        visited = [set() for _ in spec.stocks]
        q = params.resolved_initial_queue(spec)
        for _, (_, _, _, nq), _ in _slots(spec, params, solver, trace,
                                          horizon, 0, 0):
            for seen, v in zip(visited, q):
                seen.add(v)
            q = nq
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


class TestPlaceholder:
    def test_zero_holdings_start_at_band_floor(self):
        spec = one_stock_spec(mu_max=2)
        wrapped = placeholder_wrap(TraderParams(V=50), spec)
        assert wrapped.initial_queue == (2,) and wrapped.placeholder

    def test_out_of_band_holdings_rejected(self):
        spec = one_stock_spec(mu_max=1, p_max_cents=100)
        with pytest.raises(StructuralError):
            placeholder_wrap(TraderParams(V=1, initial_queue=(100,)), spec)

    def test_fake_shares_never_sold(self):
        spec = one_stock_spec(mu_max=2)
        params = placeholder_wrap(TraderParams(V=20), spec)
        traj = run_backtest(spec, params, uniform_two_price(), 2000, seed=6)
        for t in range(traj.n_slots):
            real = traj.real_queue_at(t)
            assert all(m <= r for m, r in zip(traj.sells[t], real))
            assert all(r >= 0 for r in real)

    def test_no_startup_purchase_posted(self):
        spec = one_stock_spec(mu_max=2)
        plain = run_backtest(spec, TraderParams(V=20), uniform_two_price(),
                             500, seed=8)
        wrapped = run_backtest(spec, placeholder_wrap(TraderParams(V=20),
                                                      spec),
                               uniform_two_price(), 500, seed=8)
        assert wrapped.cumulative_profit() == plain.cumulative_profit()
        assert startup_cost(spec, plain.prices[0]) > 0


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
