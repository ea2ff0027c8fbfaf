"""Exact comparison baselines for the dynamic policy.

- the optimal price-only policy LP (profit-rate upper bound and its
  randomized policy),
- the exact finite-horizon lookahead optimizer over one frame, a dynamic
  program over (slot, net-share vector),
- a brute-force per-slot objective minimizer used as a test oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import CapacityError, StructuralError
from .market import MarketSpec, TradeDecision, slot_profit
from .money import cents_to_units
from .prices import PriceDistribution
from .trader import SlotSolver, TraderParams, capacity_cells

DEFAULT_ENUM_CAP = 10 ** 6
DEFAULT_SEARCH_CAP = 10 ** 8  # lookahead DP states


@dataclass(frozen=True)
class ActionSet:
    """All feasible (buys, sells) pairs for one price vector."""

    price: tuple
    actions: tuple  # of TradeDecision


def _feasible(spec: MarketSpec, prices, queue):
    """(buy vectors, sell vectors) for checked prices; every pair of one
    of each is feasible, and there are no other feasible pairs.  The size
    bound is checked against the cap before anything is built."""
    cap = capacity_cells(DEFAULT_ENUM_CAP)
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
    budget = spec.budget
    buy_set = list(itertools.product(*buy_opts))
    if budget.mode == "money":
        buy_set = [b for b in buy_set
                   if sum(a * p for a, p in zip(b, prices)) <= budget.money]
    elif budget.mode == "shares":
        buy_set = [b for b in buy_set if sum(b) <= budget.shares]
    return buy_set, list(itertools.product(*sell_opts))


def enumerate_actions(spec: MarketSpec, prices, queue=None) -> ActionSet:
    """Complete feasible action enumeration for one price vector.

    queue=None gives the virtual-policy set (no ownership constraint);
    passing a queue additionally caps sells by current holdings.
    """
    prices = spec.check_prices(prices)
    buy_set, sell_set = _feasible(spec, prices, queue)
    return ActionSet(prices, tuple(TradeDecision(buys, sells)
                                   for buys in buy_set for sells in sell_set))


@dataclass(frozen=True)
class PonlyPolicy:
    """Conditional distribution over feasible actions per support price."""

    table: tuple  # tuple of (price, tuple of (TradeDecision, Fraction))

    def actions_for(self, price):
        for p, acts in self.table:
            if p == price:
                return acts
        raise StructuralError(f"price {price} not in policy support")

    def check_simplex(self):
        for _, acts in self.table:
            total = sum(q for _, q in acts)
            if total != 1 or any(q < 0 or q > 1 for _, q in acts):
                raise StructuralError("policy probabilities are not a simplex")


@dataclass(frozen=True)
class PonlySolution:
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
    index = []
    for i, aset in enumerate(sets):
        for j in range(len(aset.actions)):
            index.append((i, j))
    objective = [dist.probs[i] * cents_to_units(
        slot_profit(spec, sets[i].price, sets[i].actions[j]))
        for i, j in index]
    constraints = []
    for i in range(len(sets)):
        row = [1 if ii == i else 0 for ii, _ in index]
        constraints.append((row, EQ, 1))
    for n in range(spec.n_stocks):
        row = [dist.probs[i] * (sets[i].actions[j].buys[n]
                                - sets[i].actions[j].sells[n])
               for i, j in index]
        constraints.append((row, GEQ, 0))
    _, x = solve_lp(objective, constraints, maximize=True)
    table = []
    pos = 0
    for i, aset in enumerate(sets):
        acts = []
        for j in range(len(aset.actions)):
            q = x[pos]
            pos += 1
            if q > 0:
                acts.append((aset.actions[j], q))
        table.append((aset.price, tuple(acts)))
    policy = PonlyPolicy(tuple(table))
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


@dataclass(frozen=True)
class LookaheadResult:
    psi_cents: int
    decisions: tuple  # length-T TradeDecision sequence


def _frame_dp(spec: MarketSpec, window) -> tuple:
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
        buy_set, sell_set = _feasible(spec, p, None)
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
    solved = [_frame_dp(g, [tuple(p[i] for i in cols) for p in window])
              for g, cols in groups]
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
    the per-slot optimality checks compare against.  Ties prefer the
    smaller trade, then the lower stock index.

    Every cost is 0 at 0 shares, so a pair's objective is that of its
    sells with no buys plus that of its buys with no sells: each side is
    scored once and every pair is compared by the sum."""
    prices = spec.check_prices(prices)
    score = SlotSolver(spec, params).scaled_objective
    buy_set, sell_set = _feasible(spec, prices, queue)
    zero = (0,) * spec.n_stocks
    sell_scores = [(score(prices, queue, sells, zero), sum(sells), sells)
                   for sells in sell_set]
    buy_scores = [(score(prices, queue, zero, buys), sum(buys), buys)
                  for buys in buy_set]
    _, _, both = min((vs + vb, ts + tb, sells + buys)
                     for vb, tb, buys in buy_scores
                     for vs, ts, sells in sell_scores)
    n = spec.n_stocks
    return TradeDecision(both[n:], both[:n])
