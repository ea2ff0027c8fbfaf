"""Parity of the frame lookahead with the code it replaced.

Two references are kept verbatim.  `reference_lookahead_psi` is the joint
DP: one DP over every stock's net vector, each slot's actions enumerated
as `TradeDecision`s and scored with `slot_profit`.  `dict_lookahead_psi`
is the grouped, side-scored DP that followed it: one-stock groups when no
budget couples the stocks, each slot's pairs built by `_dict_feasible` and
scored through `StockSpec.proceeds`/`outlay`, stably sorted by gain, and
values kept in dicts over exact reach sets.  Both are compared with the
live `lookahead_psi` on seeded random frames with every cost kind and
budget mode, value, decisions and capacity errors alike.
"""

import itertools
import math
import random
from operator import mul

import pytest

from lyaptrade import BudgetMode, MarketSpec, StockSpec, lookahead_psi
from lyaptrade.errors import CapacityError, StructuralError
from lyaptrade.market import TradeDecision, slot_profit
from lyaptrade.oracles import (DEFAULT_ENUM_CAP, DEFAULT_SEARCH_CAP,
                               LookaheadResult, enumerate_actions)
from lyaptrade.trader import capacity_cells

from reference_helpers import replace
from test_slot_parity import COST_KINDS, _cost
from test_verifier_parity import outcome


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


def _dict_feasible(spec: MarketSpec, prices, queue, cap: int):
    """(buy vectors, sell vectors) for checked prices; every pair of one
    of each is feasible, and there are no other feasible pairs.  The size
    bound is checked against `cap` before anything is built."""
    sell_opts = []
    for n, s in enumerate(spec.stocks):
        hi = s.mu_max if queue is None else min(s.mu_max, queue[n])
        sell_opts.append([m for m in range(hi + 1)
                          if s.proceeds(m, prices[n]) >= 0])
    buy_opts = [range(s.mu_max + 1) for s in spec.stocks]
    bound = 1
    for so, bo in zip(sell_opts, buy_opts):
        bound *= len(so) * len(bo)
    if bound > cap:
        raise CapacityError(f"action set bound {bound} exceeds cap {cap}")
    sizes, limit = spec.budget.purchase_rule(prices)
    buy_set = [b for b in itertools.product(*buy_opts)
               if sum(map(mul, b, sizes)) <= limit]
    return buy_set, list(itertools.product(*sell_opts))


def _dict_frame_dp(spec: MarketSpec, window, cap: int) -> tuple:
    """(best profit, one (buys, sells) per slot) over a frame of checked
    prices.  Keeping each slot's first action per net delta in descending
    profit order makes ties resolve to the lex-first optimal sequence."""
    T = len(window)
    # Net vectors are packed into one integer, digit n holding
    # net_n + T*mu_n in radix 2*T*mu_n + 1; deltas then add as integers.
    offsets = [T * s.mu_max for s in spec.stocks]
    radix = [2 * o + 1 for o in offsets]
    strides = [math.prod(radix[:n]) for n in range(len(radix))]
    steps = []
    for p in window:
        # Every cost is 0 at 0 shares, so an action's profit and delta are
        # its buy side's plus its sell side's: each side is scored once.
        buy_set, sell_set = _dict_feasible(spec, p, None, cap)
        buys = [(-sum(s.outlay(a, q) for s, q, a in zip(spec.stocks, p, b)),
                 sum(a * w for a, w in zip(b, strides)), b) for b in buy_set]
        sells = [(sum(s.proceeds(m, q) for s, q, m in zip(spec.stocks, p, v)),
                  -sum(m * w for m, w in zip(v, strides)), v)
                 for v in sell_set]
        kept = {}
        for gain, delta, action in sorted(
                ((bg + sg, bd + sd, (b, v))
                 for bg, bd, b in buys for sg, sd, v in sells),
                key=lambda t: -t[0]):
            kept.setdefault(delta, (gain, delta, action))
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
    path = []
    c = origin
    for t in range(T):
        nxt = values[t + 1]
        for gain, delta, action in steps[t]:
            if c + delta in nxt and gain + nxt[c + delta] == values[t][c]:
                break
        path.append(action)
        c += delta
    return values[0][origin], path


def dict_lookahead_psi(spec: MarketSpec, window) -> LookaheadResult:
    """Exact maximum frame profit with perfect knowledge of the window's
    prices, allowing intra-frame short selling as long as every stock's
    net purchases over the frame are non-negative.

    Dynamic programming over (slot, net-share vector), stock n's net
    staying within +-T*mu_n.  A money or share budget couples the stocks
    into one DP of T * prod(2*T*mu_n + 1) states.  With no budget psi is
    a sum of one-stock DPs of T*(2*T*mu_n + 1) states each, whose
    lex-first decisions make the joint one.  The total is checked against
    the cap before any action is enumerated.  A frame whose best profit
    is not positive yields 0 and all-zero decisions.
    """
    window = [spec.check_prices(p) for p in window]
    T = len(window)
    if T < 1:
        raise StructuralError("lookahead window must have at least one slot")
    groups = [(spec, range(spec.n_stocks))]
    if spec.budget.mode == "none":
        groups = [(MarketSpec((replace(s, index=0),)), (s.index,))
                  for s in spec.stocks]
    states = sum(T * math.prod(2 * T * s.mu_max + 1 for s in g.stocks)
                 for g, _ in groups)
    cap = capacity_cells(DEFAULT_SEARCH_CAP)
    if states > cap:
        raise CapacityError(
            f"lookahead frame needs up to {states} states, over the cap "
            f"of {cap}; use a smaller frame")
    enum_cap = capacity_cells(DEFAULT_ENUM_CAP)
    solved = [_dict_frame_dp(g, [tuple(p[i] for i in cols) for p in window],
                             enum_cap) for g, cols in groups]
    psi = sum(value for value, _ in solved)
    if psi <= 0:
        return LookaheadResult(
            0, tuple(TradeDecision.zero(spec.n_stocks) for _ in range(T)))
    # Groups are in stock order: each slot's group pairs join side by side.
    return LookaheadResult(psi, tuple(
        TradeDecision(*(sum(side, ()) for side in zip(*slot)))
        for slot in zip(*(path for _, path in solved))))


REFERENCE_STATES = 20_000  # keeps the joint reference DP quick


def _budget(rng, budget, stocks) -> BudgetMode:
    full = sum(s.mu_max * s.p_max for s in stocks)
    if budget == "money":
        return BudgetMode("money", money=rng.choice(
            (full, rng.randrange(1, full + 1), rng.randrange(1, 200))))
    if budget == "shares":
        return BudgetMode("shares", shares=rng.randint(
            1, sum(s.mu_max for s in stocks)))
    return BudgetMode()


def _window(rng, stocks, T) -> list:
    # Repeated levels and zero prices make ties common: zero-profit round
    # trips, and buying a share that gains as much as selling one.
    levels = [rng.randrange(0, s.p_max + 1) for s in stocks]
    return [tuple(rng.choice((0, lv, lv, rng.randrange(0, s.p_max + 1)))
                  for lv, s in zip(levels, stocks)) for _ in range(T)]


def _frame(rng, budget, n=None, mu=2, T=4):
    """An n-stock market (1-4 when None) with mu_max <= mu and costs of
    every kind, and a window of 1-T slots, shortened until the joint DP
    stays small."""
    n = n or rng.randint(1, 4)
    stocks = []
    for i in range(n):
        mu_max = rng.randint(1, mu)
        p_max = rng.choice((50, 100, 200, 300))
        stocks.append(StockSpec(
            i, mu_max, p_max,
            _cost(rng, rng.choice(COST_KINDS), mu_max, p_max, concave=False),
            _cost(rng, rng.choice(COST_KINDS), mu_max, p_max, concave=False)))
    spec = MarketSpec(tuple(stocks), _budget(rng, budget, stocks))
    T = rng.randint(1, T)
    while T > 1 and T * math.prod(2 * T * s.mu_max + 1
                                  for s in stocks) > REFERENCE_STATES:
        T -= 1
    return spec, _window(rng, stocks, T)


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


@pytest.mark.parametrize("budget", ("none", "money", "shares"))
def test_matches_the_dict_dp(budget):
    # Each market solves three windows, so one-stock groups also answer
    # from their memo of slot steps, which alike stocks share.  One-stock
    # frames run to T 6 and mu 3, past what the joint reference keeps.
    rng = random.Random(f"dict-dp-{budget}")
    seen = set()
    for trial in range(150):
        spec, window = _frame(rng, budget, n=1, mu=3, T=6) if trial % 2 \
            else _frame(rng, budget)
        if trial % 4 == 2 and spec.n_stocks > 1:
            spec = replace(spec, stocks=tuple(
                replace(spec.stocks[0], index=i) for i in range(spec.n_stocks)))
            window = _window(rng, spec.stocks, len(window))
            seen.add("alike")
        for w in [window] + [_window(rng, spec.stocks, len(window))
                             for _ in range(2)]:
            assert lookahead_psi(spec, w) == dict_lookahead_psi(spec, w), \
                (spec, w)
            seen.add(("T", len(w)))
            seen.update("zero price" for p in w if 0 in p)
        seen.update(c.kind for s in spec.stocks
                    for c in (s.buy_cost, s.sell_cost))
        seen.update(("mu", s.mu_max) for s in spec.stocks)
    assert seen >= {"table", "zero price", "alike", ("T", 6), ("mu", 3)}, seen


def test_capacity_errors_match_the_dict_dp(monkeypatch):
    # The state bound is checked first, then each slot's action-set bound
    # in stock-group order, also on a slot answered from the memo.
    rng = random.Random("lookahead-caps")
    seen = set()
    for trial in range(240):
        spec, window = _frame(rng, ("none", "money", "shares")[trial % 3],
                              T=rng.choice((1, 2, 4)))
        T = len(window)
        states = T * math.prod(2 * T * s.mu_max + 1 for s in spec.stocks)
        actions = math.prod((s.mu_max + 1) ** 2 for s in spec.stocks)
        monkeypatch.delenv("LYAPTRADE_CAPACITY_CELLS", raising=False)
        lookahead_psi(spec, window)
        monkeypatch.setenv("LYAPTRADE_CAPACITY_CELLS",
                           str(rng.randint(1, max(states, actions) + 2)))
        got = outcome(lookahead_psi, spec, window)
        assert got == outcome(dict_lookahead_psi, spec, window), (spec, window)
        if isinstance(got, tuple) and got[0] is CapacityError:
            seen.add((got[1].split()[0], spec.budget.mode))
    # Without a budget every group is one stock and keeps a memo.
    assert seen >= {("lookahead", "money"), ("action", "money"),
                    ("lookahead", "none"), ("action", "none")}, seen
