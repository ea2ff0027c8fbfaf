"""Property-based invariants over randomized markets and trajectories."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from lyaptrade import (BudgetMode, CostFunction, MarketSpec, PriceTrace,
                       StockSpec, TradeDecision, TraderParams, cents_to_str,
                       run_backtest, slot_profit, to_cents)
from lyaptrade.analysis import verify_queue_band
from lyaptrade.oracles import brute_force_slot_min, enumerate_actions
from lyaptrade.trader import SlotSolver, scaled_terms

from conftest import buy_coeffs
from reference_helpers import check_one_slot_drift


@st.composite
def cost_functions(draw):
    kind = draw(st.sampled_from(("zero", "linear", "fixed")))
    if kind == "linear":
        return CostFunction("linear", rate=draw(st.integers(0, 40)))
    if kind == "fixed":
        return CostFunction("fixed", fee=draw(st.integers(0, 80)))
    return CostFunction()


@st.composite
def markets(draw, max_stocks=2):
    n = draw(st.integers(1, max_stocks))
    stocks = tuple(
        StockSpec(i, draw(st.integers(1, 3)),
                  draw(st.sampled_from((100, 200, 300))),
                  draw(cost_functions()), draw(cost_functions()))
        for i in range(n))
    budget = BudgetMode()
    if draw(st.booleans()):
        budget = BudgetMode("money", money=draw(st.integers(50, 800)))
    return MarketSpec(stocks, budget)


@st.composite
def market_and_trace(draw, length=30, max_stocks=2):
    spec = draw(markets(max_stocks=max_stocks))
    rows = tuple(
        tuple(draw(st.integers(0, s.p_max)) for s in spec.stocks)
        for _ in range(length))
    return spec, PriceTrace(rows)


@given(st.integers(0, 10 ** 6))
def test_money_cents_round_trip(cents):
    assert to_cents(cents_to_str(cents)) == cents


@given(market_and_trace(length=1))
def test_zero_decision_profit_is_zero(pair):
    spec, trace = pair
    assert slot_profit(spec, trace.sequence[0],
                       TradeDecision.zero(spec.n_stocks)) == 0


@settings(max_examples=40, deadline=None)
@given(market_and_trace(), st.sampled_from((1, 5, 50)))
def test_band_holds_on_arbitrary_traces(pair, V):
    spec, trace = pair
    traj = run_backtest(spec, TraderParams(V=V), trace, len(trace))
    assert verify_queue_band(traj).ok


@settings(max_examples=40, deadline=None)
@given(market_and_trace(length=6), st.sampled_from((1, 5, 50)))
def test_trader_matches_brute_force(pair, V):
    spec, trace = pair
    params = TraderParams(V=V)
    traj = run_backtest(spec, params, trace, len(trace))
    score = scaled_terms(spec, params).scaled_objective
    for t in range(traj.n_slots):
        q = traj.queue_at(t)
        oracle = brute_force_slot_min(params, spec, traj.prices[t], q)
        assert score(traj.prices[t], q, traj.sells[t], traj.buys[t]) \
            == score(traj.prices[t], q, oracle.sells, oracle.buys)


@settings(max_examples=40, deadline=None)
@given(market_and_trace(length=12), st.sampled_from((1, 5, 50)))
def test_one_slot_drift_inequality(pair, V):
    spec, trace = pair
    traj = run_backtest(spec, TraderParams(V=V), trace, len(trace))
    assert all(check_one_slot_drift(traj, t) for t in range(traj.n_slots))


@settings(max_examples=30, deadline=None)
@given(markets(), st.data())
def test_greedy_never_worse_than_exact_and_overshoot_bounded(spec, data):
    if any(not s.buy_cost.is_concave(s.mu_max) for s in spec.stocks):
        return
    if spec.budget.mode == "money" and any(
            s.buy_cost.kind not in ("zero", "linear") for s in spec.stocks):
        return  # dominance is only promised on this domain
    prices = tuple(data.draw(st.integers(0, s.p_max)) for s in spec.stocks)
    queue = tuple(data.draw(st.integers(0, 6)) for _ in spec.stocks)
    params = TraderParams(V=data.draw(st.sampled_from((1, 5, 50))))
    exact = SlotSolver(spec, params)
    greedy = SlotSolver(spec, TraderParams(V=params.V, buy_solver="greedy"))
    a_exact = exact.buy(prices, queue)
    a_greedy = greedy.buy(prices, queue)

    def buy_objective(buys):
        coeff = buy_coeffs(exact, prices, queue)
        return sum(w * a for w, a in zip(coeff, buys)) \
            + exact.terms.k * sum(s.buy_cost(a)
                                  for s, a in zip(spec.stocks, buys))

    assert buy_objective(a_greedy) <= buy_objective(a_exact)
    if spec.budget.mode == "money":
        spent = sum(a * p for a, p in zip(a_greedy, prices))
        assert spent <= spec.budget.money + max(s.p_max for s in spec.stocks)


@settings(max_examples=15, deadline=None)
@given(market_and_trace(length=3, max_stocks=1))
def test_lookahead_decisions_feasible_and_optimal(pair):
    import itertools

    from lyaptrade import lookahead_psi
    from lyaptrade.market import slot_profit
    spec, trace = pair
    window = list(trace.sequence)
    res = lookahead_psi(spec, window)
    # frame-end net non-negative per stock
    for i in range(spec.n_stocks):
        assert sum(d.buys[i] - d.sells[i] for d in res.decisions) >= 0
    # matches the naive exhaustive optimum
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
    assert res.psi_cents == best


@settings(max_examples=40, deadline=None)
@given(market_and_trace(length=10), st.sampled_from((2, 20)))
def test_profit_ledger_consistent(pair, V):
    spec, trace = pair
    traj = run_backtest(spec, TraderParams(V=V), trace, len(trace))
    for t in range(traj.n_slots):
        d = TradeDecision(traj.buys[t], traj.sells[t])
        assert traj.profits[t] == slot_profit(spec, traj.prices[t], d)
    traj.check_dynamics()
