"""Parity of the grouped, side-scored frame lookahead with the code it
replaced.

`reference_lookahead_psi` is the joint DP copied verbatim: one DP over
every stock's net vector, each slot's actions enumerated as
`TradeDecision`s and scored with `slot_profit`.  It is compared with the
live `lookahead_psi` on seeded random frames with every cost kind and
budget mode, value and decisions alike.
"""

import math
import random

import pytest

from lyaptrade import BudgetMode, MarketSpec, StockSpec, lookahead_psi
from lyaptrade.errors import CapacityError, StructuralError
from lyaptrade.market import TradeDecision, slot_profit
from lyaptrade.oracles import DEFAULT_SEARCH_CAP, LookaheadResult, \
    enumerate_actions
from lyaptrade.trader import capacity_cells

from test_slot_parity import COST_KINDS, _cost


def reference_lookahead_psi(spec: MarketSpec, window) -> LookaheadResult:
    """Exact maximum frame profit with perfect knowledge of the window's
    prices, allowing intra-frame short selling as long as every stock's
    net purchases over the frame are non-negative.

    Dynamic programming over (slot, running net-share vector): the best
    suffix profit depends only on those two.  Stock n's net stays within
    +-T*mu_n, so a frame has at most T * prod(2*T*mu_n + 1) states; that
    bound is checked against the cap before any action is enumerated.
    Each slot's actions are sorted by descending profit and only the
    first action per net delta is kept, so ties resolve to the
    lexicographically first optimal sequence in that order.  A frame
    whose best profit is not positive yields 0 and all-zero decisions.
    """
    window = [spec.check_prices(p) for p in window]
    T = len(window)
    if T < 1:
        raise StructuralError("lookahead window must have at least one slot")
    # Net vectors are packed into one integer, digit n holding
    # net_n + T*mu_n in radix 2*T*mu_n + 1; deltas then add as integers.
    offsets = [T * s.mu_max for s in spec.stocks]
    radix = [2 * o + 1 for o in offsets]
    states = T * math.prod(radix)
    cap = capacity_cells(DEFAULT_SEARCH_CAP)
    if states > cap:
        raise CapacityError(
            f"lookahead frame needs up to {states} states, over the cap "
            f"of {cap}; use a smaller frame")
    strides = [math.prod(radix[:n]) for n in range(len(radix))]
    steps = []
    for p in window:
        scored = sorted(((slot_profit(spec, p, d), d)
                         for d in enumerate_actions(spec, p).actions),
                        key=lambda t: -t[0])
        kept = {}
        for gain, d in scored:
            delta = sum((a - m) * w
                        for a, m, w in zip(d.buys, d.sells, strides))
            kept.setdefault(delta, (gain, delta, d))
        steps.append(tuple(kept.values()))
    origin = sum(o * w for o, w in zip(offsets, strides))
    reach = [{origin}]
    for kept in steps:
        reach.append({c + delta for c in reach[-1] for _, delta, _ in kept})
    values = [None] * T + [{
        c: 0 for c in reach[T]
        if all(c // w % r >= o for w, r, o in zip(strides, radix, offsets))}]
    for t in range(T - 1, -1, -1):
        nxt = values[t + 1]
        cur = {}
        for c in reach[t]:
            gains = [gain + nxt[c + delta] for gain, delta, _ in steps[t]
                     if c + delta in nxt]
            if gains:
                cur[c] = max(gains)
        values[t] = cur
    psi = values[0][origin]
    if psi <= 0:
        return LookaheadResult(
            0, tuple(TradeDecision.zero(spec.n_stocks) for _ in range(T)))
    decisions = []
    c = origin
    for t in range(T):
        nxt = values[t + 1]
        for gain, delta, d in steps[t]:
            if c + delta in nxt and gain + nxt[c + delta] == values[t][c]:
                break
        decisions.append(d)
        c += delta
    return LookaheadResult(psi, tuple(decisions))


REFERENCE_STATES = 20_000  # keeps the joint reference DP quick


def _frame(rng, budget):
    """A 1-4 stock market with mu <= 2 and costs of every kind, and a
    window of 1-4 slots, shortened until the joint DP stays small."""
    n = rng.randint(1, 4)
    stocks = []
    for i in range(n):
        mu_max = rng.randint(1, 2)
        p_max = rng.choice((50, 100, 200, 300))
        stocks.append(StockSpec(
            i, mu_max, p_max,
            _cost(rng, rng.choice(COST_KINDS), mu_max, p_max, concave=False),
            _cost(rng, rng.choice(COST_KINDS), mu_max, p_max, concave=False)))
    full = sum(s.mu_max * s.p_max for s in stocks)
    if budget == "money":
        mode = BudgetMode("money", money=rng.choice(
            (full, rng.randrange(1, full + 1), rng.randrange(1, 200))))
    elif budget == "shares":
        mode = BudgetMode("shares", shares=rng.randint(
            1, sum(s.mu_max for s in stocks)))
    else:
        mode = BudgetMode()
    spec = MarketSpec(tuple(stocks), mode)
    T = rng.randint(1, 4)
    while T > 1 and T * math.prod(2 * T * s.mu_max + 1
                                  for s in stocks) > REFERENCE_STATES:
        T -= 1
    # Repeated levels and zero prices make ties common: zero-profit round
    # trips, and buying a share that gains as much as selling one.
    levels = [rng.randrange(0, s.p_max + 1) for s in stocks]
    window = [tuple(rng.choice((0, lv, lv, rng.randrange(0, s.p_max + 1)))
                    for lv, s in zip(levels, stocks)) for _ in range(T)]
    return spec, window


@pytest.mark.parametrize("budget", ("none", "money", "shares"))
def test_matches_reference(budget):
    rng = random.Random(f"lookahead-{budget}")
    for _ in range(150):
        spec, window = _frame(rng, budget)
        assert lookahead_psi(spec, window) \
            == reference_lookahead_psi(spec, window), (spec, window)


def test_zero_profit_round_trip_is_kept():
    # Stock 0's best is a zero-profit round trip, which the joint DP
    # picks next to stock 1's profitable one; only the total is zeroed.
    spec = MarketSpec((StockSpec(0, 1, 200), StockSpec(1, 1, 200)))
    window = [(100, 100), (100, 200)]
    expected = LookaheadResult(100, (TradeDecision((0, 1), (1, 0)),
                                     TradeDecision((1, 0), (0, 1))))
    assert reference_lookahead_psi(spec, window) == expected
    assert lookahead_psi(spec, window) == expected


def test_no_profit_gives_zero_decisions():
    # Flat prices and no costs: every round trip ties with doing nothing.
    spec = MarketSpec((StockSpec(0, 1, 200), StockSpec(1, 2, 200)))
    window = [(100, 150), (100, 150)]
    res = lookahead_psi(spec, window)
    assert res == reference_lookahead_psi(spec, window)
    assert res == LookaheadResult(0, (TradeDecision.zero(2),) * 2)
