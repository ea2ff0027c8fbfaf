"""Exact comparison baselines for the dynamic policy.

- the optimal price-only policy LP (profit-rate upper bound and its
  randomized policy),
- the exact finite-horizon lookahead optimizer over one frame, a dynamic
  program over (slot, net-share vector),
- a brute-force per-slot objective minimizer used as a test oracle.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from itertools import repeat
from operator import add, getitem, mul
from typing import NamedTuple

from ._record import Record
from .errors import CapacityError, StructuralError
from .market import MarketSpec, TradeDecision, slot_profit
from .money import cents_to_units
from .prices import PriceDistribution
from .trader import TraderParams, capacity_cells, cost_tables, scaled_terms

DEFAULT_ENUM_CAP = 10 ** 6
DEFAULT_SEARCH_CAP = 10 ** 8  # lookahead DP states


class ActionSet(Record, frozen=True):
    """All feasible (buys, sells) pairs for one price vector."""

    price: tuple
    actions: tuple  # of TradeDecision


def _feasible(mus, sell, budget, prices, queue, cap: int):
    """(buy vectors, sell vectors) of stocks with trade caps `mus`, sell
    cost tables `sell` and purchase budget `budget` at checked prices;
    every pair of one of each is feasible, and there are no other
    feasible pairs.  The size bound is checked against `cap` before
    anything is built."""
    sell_opts = []
    for n, (mu, p, tab) in enumerate(zip(mus, prices, sell)):
        hi = mu if queue is None else min(mu, queue[n])
        sell_opts.append([m for m in range(hi + 1) if m * p >= tab[m]])
    buy_opts = [range(mu + 1) for mu in mus]
    bound = 1
    for so, bo in zip(sell_opts, buy_opts):
        bound *= len(so) * len(bo)
    if bound > cap:
        raise CapacityError(f"action set bound {bound} exceeds cap {cap}")
    sizes, limit = budget.purchase_rule(prices)
    buy_set = [b for b in itertools.product(*buy_opts)
               if sum(map(mul, b, sizes)) <= limit]
    return buy_set, list(itertools.product(*sell_opts))


def _spec_feasible(spec: MarketSpec, prices, queue):
    """_feasible over every stock of spec, under the enumeration cap."""
    return _feasible([s.mu_max for s in spec.stocks], cost_tables(spec)[0],
                     spec.budget, prices, queue,
                     capacity_cells(DEFAULT_ENUM_CAP))


def enumerate_actions(spec: MarketSpec, prices, queue=None) -> ActionSet:
    """Complete feasible action enumeration for one price vector.

    queue=None gives the virtual-policy set (no ownership constraint);
    passing a queue additionally caps sells by current holdings.
    """
    prices = spec.check_prices(prices)
    buy_set, sell_set = _spec_feasible(spec, prices, queue)
    return ActionSet(prices, tuple(TradeDecision(buys, sells)
                                   for buys in buy_set for sells in sell_set))


class PonlyPolicy(Record, frozen=True):
    """Conditional distribution over feasible actions per support price."""

    table: tuple  # tuple of (price, tuple of (TradeDecision, Fraction))


class PonlySolution(Record, frozen=True):
    policy: PonlyPolicy
    phi_opt: Fraction        # dollars per slot
    drifts: tuple            # per-stock Fractions, all >= 0
    spec: MarketSpec
    dist: PriceDistribution


def _evaluate_policy(spec, dist, table):
    """(profit rate in dollars, per-stock drifts) of a policy table."""
    profit = Fraction(0)
    drifts = [Fraction(0)] * spec.n_stocks
    for (price, acts), pi in zip(table, dist.probs):
        for d, q in acts:
            if q == 0:
                continue
            profit += pi * q * cents_to_units(slot_profit(spec, price, d))
            for n in range(spec.n_stocks):
                drifts[n] += pi * q * (d.buys[n] - d.sells[n])
    return profit, tuple(drifts)


def solve_phi_opt(spec: MarketSpec, dist: PriceDistribution) -> PonlySolution:
    """Optimal price-only policy: maximize expected slot profit over
    per-price action distributions subject to non-negative expected net
    accumulation for every stock, by exact rational simplex."""
    from .simplex import EQ, GEQ, solve_lp

    dist.check_against(spec)
    sets = [enumerate_actions(spec, p) for p in dist.support]
    # One column per (support index, action), price by price.
    cols = [(i, aset.price, d) for i, aset in enumerate(sets)
            for d in aset.actions]
    objective = [dist.probs[i] * cents_to_units(slot_profit(spec, p, d))
                 for i, p, d in cols]
    constraints = [([int(k == i) for k, _, _ in cols], EQ, 1)
                   for i in range(len(sets))]
    constraints += [([dist.probs[i] * (d.buys[n] - d.sells[n])
                      for i, _, d in cols], GEQ, 0)
                    for n in range(spec.n_stocks)]
    _, x = solve_lp(objective, constraints, maximize=True)
    # x lists each support price's action weights in turn; zip takes
    # exactly len(actions) of them per price.
    weights = iter(x)
    policy = PonlyPolicy(tuple(
        (aset.price, tuple((d, q) for d, q in zip(aset.actions, weights)
                           if q > 0)) for aset in sets))
    profit, drifts = _evaluate_policy(spec, dist, policy.table)
    if profit < 0:
        raise StructuralError("optimal price-only profit cannot be negative")
    if any(d < 0 for d in drifts):
        raise StructuralError("LP returned a negative-drift policy")
    return PonlySolution(policy, profit, drifts, spec, dist)


def drift_rebalance(solution: PonlySolution) -> PonlySolution:
    """Thin the buy side of every positive-drift stock so all drifts hit
    zero without reducing the profit rate.

    A stock with expected buys alpha and expected sells beta (< alpha)
    keeps its buy component with probability beta/alpha and zeroes it
    otherwise; in distribution terms the kept action splits its mass with
    its buy entry zeroed.
    """
    spec, dist = solution.spec, solution.dist
    table = [(price, dict(acts)) for price, acts in solution.policy.table]
    for n in range(spec.n_stocks):
        _, drifts = _evaluate_policy(
            spec, dist, [(p, tuple(a.items())) for p, a in table])
        d = drifts[n]
        if d <= 0:
            continue
        alpha = Fraction(0)
        beta = Fraction(0)
        for (price, acts), pi in zip(table, dist.probs):
            for act, q in acts.items():
                alpha += pi * q * act.buys[n]
                beta += pi * q * act.sells[n]
        assert alpha > 0, "positive drift forces positive expected buys"
        keep = beta / alpha
        for price, acts in table:
            for act in list(acts):
                if act.buys[n] == 0:
                    continue
                q = acts.pop(act)
                zeroed = TradeDecision(
                    tuple(0 if m == n else a for m, a in enumerate(act.buys)),
                    act.sells)
                if keep > 0:
                    acts[act] = acts.get(act, Fraction(0)) + q * keep
                acts[zeroed] = acts.get(zeroed, Fraction(0)) + q * (1 - keep)
    new_table = tuple((price, tuple(acts.items())) for price, acts in table)
    policy = PonlyPolicy(new_table)
    profit, drifts = _evaluate_policy(spec, dist, new_table)
    if profit < solution.phi_opt:
        raise StructuralError("rebalance reduced the profit rate")
    return PonlySolution(policy, profit, drifts, spec, dist)


class LookaheadResult(Record, frozen=True):
    psi_cents: int
    decisions: tuple  # length-T TradeDecision sequence


NEG = float("-inf")  # the value of a net that cannot end the frame >= 0


class _Group(NamedTuple):
    """Stocks that share one lookahead DP, with their trade caps and
    cost tables.  `steps` maps a slot's prices to its action-set bound
    and steps, for the first STEP_MEMO prices of a one-stock group only;
    one-stock steps do not depend on the frame length, as the stride is
    1."""

    cols: tuple
    mus: tuple
    sell: tuple
    buy: tuple
    steps: dict


STEP_MEMO = 4096  # prices whose steps a one-stock group keeps


@functools.lru_cache(maxsize=8)
def _groups(spec: MarketSpec) -> tuple:
    """The lookahead's stock groups of spec, built once per spec: one per
    stock when no budget couples the stocks, else one of them all, each
    with the tables of `cost_tables(spec)`."""
    sell, buy = cost_tables(spec)
    cols = [(n,) for n in range(spec.n_stocks)] \
        if spec.budget.mode == "none" else [tuple(range(spec.n_stocks))]
    memos = {}  # stocks alike in trade cap and costs score prices alike
    groups = []
    for c in cols:
        rows = (tuple(spec.stocks[n].mu_max for n in c),
                tuple(sell[n] for n in c), tuple(buy[n] for n in c))
        groups.append(_Group(c, *rows, memos.setdefault(rows, {})))
    return tuple(groups)


class _Geometry(NamedTuple):
    """A group's DP layout over frames of T slots.  A net vector is
    packed into one integer, digit n holding net_n + T*mu_n in radix
    2*T*mu_n + 1, so deltas add as integers; `origin` packs the zero net.
    final[c] is 0 when every net of c is >= 0, else NEG.  last[c] indexes
    the last slot's table of best gains (see _frame_dp) at the deltas e
    with e_n >= -net_n, that bound clipped to -mu_n, or the table's NEG
    entry past its end when some net_n < -mu_n.  runs[t] lists, one per
    row of the lowest digit, the index ranges [lo, hi) of the nets with
    |net_n| <= t*mu_n, which hold every net reachable after t slots; a
    step from any of them stays inside the lists."""

    strides: tuple
    origin: int
    final: tuple
    last: tuple
    runs: tuple


@functools.lru_cache(maxsize=8)
def _geometry(mus: tuple, T: int) -> _Geometry:
    """The _Geometry of a group with trade caps `mus` over T slots."""
    offsets = [T * mu for mu in mus]
    radix = [2 * o + 1 for o in offsets]
    strides = [math.prod(radix[:n]) for n in range(len(radix))]
    size = math.prod(2 * mu + 1 for mu in mus)
    final, last, w = [0], [0], 1
    for o, mu, r in zip(offsets, mus, radix):
        final = [v if d >= o else NEG for d in range(r) for v in final]
        last = [i + ((max(o - d, -mu) + mu) * w if o - d <= mu else size)
                for d in range(r) for i in last]
        w *= 2 * mu + 1
    runs = []
    for t in range(T):
        starts = [offsets[0] - t * mus[0]]
        for o, mu, w in zip(offsets[1:], mus[1:], strides[1:]):
            starts = [s + d * w for d in range(o - t * mu, o + t * mu + 1)
                      for s in starts]
        runs.append(tuple((s, s + 2 * t * mus[0] + 1) for s in starts))
    return _Geometry(tuple(strides),
                     sum(o * w for o, w in zip(offsets, strides)),
                     tuple(final), tuple(min(i, size) for i in last),
                     tuple(runs))


def _slot_steps(group: _Group, strides, budget, p, cap) -> list:
    """One slot's (gain, delta, (buys, sells)) per net delta of a group at
    its checked prices p, scored from the cost tables once `_feasible`
    has checked the action set's size bound against `cap`.  Each delta
    keeps its best pair, the first generated (buy-major) on ties, and the
    steps run by descending gain, then generation: the first pair per
    delta of every pair stably sorted by descending gain."""
    _, mus, sell, buy, memo = group
    kept = memo.get(p)
    if kept is not None and kept[0] <= cap:
        return kept[1]
    buy_set, sell_set = _feasible(mus, sell, budget, p, None, cap)
    # Every cost is 0 at 0 shares, so a pair's gain and delta are its buy
    # side's plus its sell side's: each side is scored once.
    buys = [(-sum(map(mul, b, p)) - sum(map(getitem, buy, b)),
             sum(map(mul, b, strides)), b) for b in buy_set]
    sells = [(sum(map(mul, v, p)) - sum(map(getitem, sell, v)),
              -sum(map(mul, v, strides)), v) for v in sell_set]
    best = {}
    gen = 0
    for bg, bd, b in buys:
        for sg, sd, v in sells:
            old = best.get(bd + sd)
            if old is None or bg + sg > -old[0]:
                best[bd + sd] = (-bg - sg, gen, bd + sd, (b, v))
            gen += 1
    steps = [(-g, d, act) for g, _, d, act in sorted(best.values())]
    if len(mus) == 1 and len(memo) < STEP_MEMO:
        # The size bound, for a later call under a lower cap to recheck.
        memo[p] = len(sell_set) * (mus[0] + 1), steps
    return steps


def _frame_dp(group, budget, window, cap: int) -> tuple:
    """(best profit, one (buys, sells) per slot) of a group over a frame
    of its checked prices.  Values run backward over lists indexed by the
    packed net, and each slot takes the first action of its steps that
    attains the value, which makes ties resolve to the lex-first optimal
    sequence in the steps' order."""
    mus = group.mus
    geo = _geometry(mus, len(window))
    steps = [_slot_steps(group, geo.strides, budget, p, cap)
             for p in window]
    # The last slot's value is its best gain over the deltas that end
    # every net >= 0: best[x] is the best gain over deltas e >= x, a
    # suffix maximum along each stock of the deltas' box.
    widths = [2 * mu + 1 for mu in mus]
    size = math.prod(widths)
    best = [NEG] * (size + 1)
    for gain, _, (b, v) in steps[-1]:
        i, w = 0, 1
        for a, m, mu, width in zip(b, v, mus, widths):
            i, w = i + (a - m + mu) * w, w * width
        best[i] = gain
    w = 1
    for width in widths:
        for i in range(size - 1, -1, -1):
            if i // w % width < width - 1 and best[i + w] > best[i]:
                best[i] = best[i + w]
        w *= width
    values = [geo.final, list(map(best.__getitem__, geo.last))]
    for step, spans in zip(steps[-2::-1], geo.runs[-2::-1]):
        nxt = values[-1]
        cur = [NEG] * len(nxt)
        for lo, hi in spans:
            cur[lo:hi] = map(max, repeat(NEG), *(
                map(add, nxt[lo + d:hi + d], repeat(g)) for g, d, _ in step))
        values.append(cur)
    values.reverse()
    path = []
    c = geo.origin
    for t, step in enumerate(steps):
        nxt, value = values[t + 1], values[t][c]
        for gain, delta, action in step:
            if gain + nxt[c + delta] == value:
                break
        path.append(action)
        c += delta
    return values[0][geo.origin], path


def lookahead_psi(spec: MarketSpec, window) -> LookaheadResult:
    """Exact maximum frame profit with perfect knowledge of the window's
    prices, allowing intra-frame short selling as long as every stock's
    net purchases over the frame are non-negative.

    Dynamic programming over (slot, net-share vector), stock n's net
    staying within +-T*mu_n.  A money or share budget couples the stocks
    into one DP of T * prod(2*T*mu_n + 1) states.  With no budget psi is
    a sum of one-stock DPs of T*(2*T*mu_n + 1) states each, whose
    lex-first decisions make the joint one.  The total is checked against
    the cap before any action is enumerated.  A frame whose best profit
    is not positive yields 0 and all-zero decisions.  The groups and
    their cost tables are built once per spec, and one-stock groups
    score each price they see once, stocks alike in trade cap and costs
    sharing the scores.
    """
    window = [spec.check_prices(p) for p in window]
    T = len(window)
    if T < 1:
        raise StructuralError("lookahead window must have at least one slot")
    groups = _groups(spec)
    states = sum(T * math.prod(2 * T * mu + 1 for mu in g.mus)
                 for g in groups)
    cap = capacity_cells(DEFAULT_SEARCH_CAP)
    if states > cap:
        raise CapacityError(
            f"lookahead frame needs up to {states} states, over the cap "
            f"of {cap}; use a smaller frame")
    enum_cap = capacity_cells(DEFAULT_ENUM_CAP)
    solved = [_frame_dp(g, spec.budget, [tuple(p[i] for i in g.cols)
                                         for p in window], enum_cap)
              for g in groups]
    psi = sum(value for value, _ in solved)
    if psi <= 0:
        return LookaheadResult(
            0, tuple(TradeDecision.zero(spec.n_stocks) for _ in range(T)))
    # Groups are in stock order: each slot's group pairs join side by side.
    return LookaheadResult(psi, tuple(
        TradeDecision(*(sum(side, ()) for side in zip(*slot)))
        for slot in zip(*(path for _, path in solved))))


def brute_force_slot_min(params: TraderParams, spec: MarketSpec,
                         prices, queue) -> TradeDecision:
    """Exhaustive minimizer of the per-slot trading objective over the
    full joint feasible set (ownership included); the independent oracle
    the per-slot optimality checks compare against, scored by
    `scaled_terms(spec, params)`.  Ties prefer the smaller trade, then
    the lower stock index.

    Every cost is 0 at 0 shares, so a pair's objective and share count
    are sums over its sides, and sells lead sells + buys at fixed length:
    the least pair joins each side's least (objective, shares, vector)."""
    prices = spec.check_prices(prices)
    score = scaled_terms(spec, params).scaled_objective
    buy_set, sell_set = _spec_feasible(spec, prices, queue)
    zero = (0,) * spec.n_stocks
    _, _, sells = min((score(prices, queue, sells, zero), sum(sells), sells)
                      for sells in sell_set)
    _, _, buys = min((score(prices, queue, zero, buys), sum(buys), buys)
                     for buys in buy_set)
    return TradeDecision(buys, sells)
