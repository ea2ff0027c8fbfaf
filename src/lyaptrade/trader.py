"""The per-slot queue-driven trading policy.

Selling and buying each minimize a queue-weighted objective every slot:
sell side per stock, buy side jointly under the purchase budget.  The
exact buy solver takes any budget; the greedy relaxation takes a money
budget or none, with concave buy costs.  All objective comparisons are
done in scaled integer arithmetic so trajectories are exactly
reproducible and the downstream bound verifiers can use zero tolerance.

Unit convention: prices and costs are integer cents; the aggressiveness
parameter V is per dollar.  Every V*price product is formed as
V * (cents/100), so targets and objectives match the dollar-denominated
formulas exactly.
"""

from __future__ import annotations

import csv
import functools
import math
import os
from fractions import Fraction
from itertools import repeat
from operator import add, floordiv, itemgetter, sub

from ._record import Record, factory
from .errors import CapacityError, ConfigError, StructuralError
from .market import MarketSpec
from .money import _as_fraction, _integer, cents_to_str, cents_to_units
from .prices import (MarkovPriceModel, PriceDistribution, PriceTrace,
                     _cap_error, _csv_rows, _parse_price_cell, make_rng,
                     markov_state_sequence, sample_iid_indices)

DEFAULT_CAPACITY_CELLS = 10 ** 8


def capacity_cells(default: int = DEFAULT_CAPACITY_CELLS) -> int:
    """Size cap of every table and DP: LYAPTRADE_CAPACITY_CELLS when
    set, else the caller's default.  A value that is not a positive
    integer is a ConfigError."""
    env = os.environ.get("LYAPTRADE_CAPACITY_CELLS")
    if not env:
        return default
    cap = _integer(env, "LYAPTRADE_CAPACITY_CELLS")
    if cap < 1:
        raise ConfigError(f"must be a positive integer, got {env!r}",
                          location="LYAPTRADE_CAPACITY_CELLS")
    return cap


def compute_theta(spec: MarketSpec, V) -> tuple:
    """Default per-stock queue targets: V * price cap + twice the trade cap."""
    V = _as_fraction(V)
    if V <= 0:
        raise ConfigError("V must be positive")
    return tuple(V * cents_to_units(s.p_max) + 2 * s.mu_max for s in spec.stocks)


class TraderParams(Record, frozen=True):
    """Tuning knobs for the per-slot policy.

    theta and initial_queue default to the conforming choices (target rule
    above; initial queue at the per-stock trade cap).  Overrides are
    allowed but flagged non-conforming, which the band verifier reports.
    With placeholder, initial_queue holds the actual shares (default
    none) and the start queue adds mu_max fake shares to each stock.
    """

    V: Fraction
    theta: tuple | None = None
    initial_queue: tuple | None = None
    placeholder: bool = False
    buy_solver: str = "exact"     # "exact" | "greedy"

    def __post_init__(self):
        object.__setattr__(self, "V", _as_fraction(self.V))
        if self.theta is not None:
            object.__setattr__(self, "theta",
                               tuple(_as_fraction(t) for t in self.theta))
        if self.initial_queue is not None:
            object.__setattr__(self, "initial_queue",
                               tuple(_integer(q, f"/trader/initial_queue/{i}")
                                     for i, q in enumerate(self.initial_queue)))
            for i, q in enumerate(self.initial_queue):
                if q < 0:
                    raise ConfigError(f"holds {q} shares; must be >= 0",
                                      location=f"/trader/initial_queue/{i}")
        if self.V <= 0:
            raise ConfigError("V must be positive", location="/trader/V")
        if self.buy_solver not in ("exact", "greedy"):
            raise ConfigError(f"unknown buy solver {self.buy_solver!r}; use "
                              "'exact', which takes any budget, or 'greedy'",
                              location="/trader/buy_solver")

    def resolved_theta(self, spec: MarketSpec) -> tuple:
        return self.theta if self.theta is not None else compute_theta(spec, self.V)

    def resolved_initial_queue(self, spec: MarketSpec) -> tuple:
        """The start queue Q(0).  Place-holder holdings must lie in
        [0, theta_n] for the default theta; the band guarantee then never
        sells a fake share."""
        q0 = self.initial_queue
        if q0 is None:
            # mu_max shares: real by default, fake under placeholder.
            return tuple(s.mu_max for s in spec.stocks)
        if len(q0) != spec.n_stocks:
            raise StructuralError("initial_queue dimensioned for a different "
                                  "market")
        if not self.placeholder:
            return q0
        for s, q, hi in zip(spec.stocks, q0, compute_theta(spec, self.V)):
            if not 0 <= q <= hi:
                raise StructuralError(
                    f"actual holdings {q} outside [0, {hi}] for stock {s.index}")
        return tuple(q + s.mu_max for q, s in zip(q0, spec.stocks))

    def theta_conforms(self, spec: MarketSpec) -> bool:
        return self.resolved_theta(spec) == compute_theta(spec, self.V)

    def initial_conforms(self, spec: MarketSpec) -> bool:
        q0 = self.resolved_initial_queue(spec)
        return all(lo <= q <= hi
                   for q, (lo, hi) in zip(q0, queue_band(spec, self)))


def queue_band(spec: MarketSpec, params: TraderParams) -> tuple:
    """Per-stock (low, high) deterministic operating band for the queues."""
    return tuple((s.mu_max, params.V * cents_to_units(s.p_max) + 3 * s.mu_max)
                 for s in spec.stocks)


class ScaledTerms(Record, frozen=True):
    """The slot objective's integer frame for one (spec, params) pair.

    S = lcm(100 * den(V), den(theta_n)) scales the objective so every
    comparison is between Python ints.  k = S*V/100 multiplies any cents
    quantity to form a scaled V*money term, thetaS[n] = S*theta_n, and
    sell_cost[n][m], buy_cost[n][a] are stock n's costs in cents."""

    scale: int
    k: int
    thetaS: tuple
    sell_cost: tuple
    buy_cost: tuple

    def scaled_objective(self, prices, queue, sells, buys) -> int:
        """S * (-V*profit - sum_n (Q_n - theta_n)(mu_n - A_n)), an integer."""
        S = self.scale
        return -self.k * self.profit(prices, sells, buys) - sum(
            (S * q - t) * (m - a)
            for q, t, m, a in zip(queue, self.thetaS, sells, buys))

    def profit(self, prices, sells, buys) -> int:
        """market.slot_profit read from the cost tables, for the hot path."""
        total = 0
        for n, p in enumerate(prices):
            total += sells[n] * p - self.sell_cost[n][sells[n]]
            total -= buys[n] * p + self.buy_cost[n][buys[n]]
        return total


@functools.lru_cache(maxsize=8)
def cost_tables(spec: MarketSpec) -> tuple:
    """(sell tables, buy tables) of spec, built once per spec: table[n][m]
    is stock n's cost in cents of m = 0..mu_n shares on that side."""
    return (tuple(tuple(map(s.sell_cost, range(s.mu_max + 1)))
                  for s in spec.stocks),
            tuple(tuple(map(s.buy_cost, range(s.mu_max + 1)))
                  for s in spec.stocks))


@functools.lru_cache(maxsize=8)
def scaled_terms(spec: MarketSpec, params: TraderParams) -> ScaledTerms:
    """The ScaledTerms of (spec, params), built once per pair."""
    theta = params.resolved_theta(spec)
    if len(theta) != spec.n_stocks:
        raise StructuralError("theta dimensioned for a different market")
    den = 100 * params.V.denominator
    S = math.lcm(den, *(t.denominator for t in theta))
    return ScaledTerms(S, S // den * params.V.numerator,
                       tuple(int(t * S) for t in theta), *cost_tables(spec))


class SlotSolver:
    """Precomputed scaled-integer solver for one (spec, params) pair.

    Every comparison is between Python ints, in the frame of
    `terms = scaled_terms(spec, params)`: its scale S, k = S*V/100, S*theta
    and the per-stock cost tables.  Only the purchase budget couples the
    stocks, so `tables[n]` keeps stock n's entry per (q_n, p_n) pair
    seen, at most p_max_n + 1 per queue value, for the buy solver to
    combine.  Decisions depend only on (queue, prices), so for as long
    as the solver lives, across every run given it, `memo` maps each
    price support of k vectors of an iid or Markov run to its walk table
    (nodes, queues, recs, gains, succ, records): `nodes` numbers each
    queue vector, `queues[node]`, on its first visit and maps it to its
    row offset node * k.  Cell i = node * k + code, the pair
    (queues[node], support[code]), points in `recs[i]` to its shared
    (sells, buys, profit) record, interned in the `records` dict, holds
    that profit in `gains[i]` and its next queue's row offset in
    `succ[i]`, -1 until it is solved; its next queue is the node key
    `queues[succ[i] // k]`.  A cell keeps no tuple of its own, and the
    rows of a book alias these records and keys.
    """

    def __init__(self, spec: MarketSpec, params: TraderParams):
        self.spec = spec
        self.params = params
        self.terms = scaled_terms(spec, params)
        self.mu_max = tuple(s.mu_max for s in spec.stocks)
        self.budget = spec.budget
        # No price moves the budget's limit; greedy decides every slot.
        self.slack_limit = None if params.buy_solver == "greedy" \
            else self.budget.purchase_rule(())[1]
        self.cap = capacity_cells()
        self.memo: dict = {}
        self.tables = tuple({} for _ in spec.stocks)
        # A plain function: a bound method would make each solver a cycle.
        self._pick = SlotSolver._greedy if params.buy_solver == "greedy" \
            else SlotSolver._exact
        if params.buy_solver == "greedy":
            if self.budget.mode == "shares":
                raise ConfigError("greedy solver relaxes a money budget; "
                                  "use the exact solver",
                                  location="/trader/buy_solver")
            for s in spec.stocks:
                if not s.buy_cost.is_concave(s.mu_max):
                    raise ConfigError(
                        f"greedy solver needs concave buy costs (stock {s.index})")

    # -- per-stock tables --------------------------------------------------

    def _entries(self, prices, queue) -> list:
        """Stock n's (sell quantity, buy coefficient, buy options) at
        (queue[n], prices[n]), for every n, each computed once per solver."""
        keys = list(zip(queue, prices))
        out = list(map(dict.get, self.tables, keys))
        if None in out:
            out = [e or self._entry(n, key)
                   for n, (e, key) in enumerate(zip(out, keys))]
        return out

    def _entry(self, n, key) -> tuple:
        """Store and return stock n's entry at key = (q, p): its sell
        quantity, buy coefficient w and options, then the per-stock
        minimiser a with its budget use, next queue and profit cents.  The
        options are (a, w*a + k*cost(a)) for each quantity a whose term is
        strictly below that of every smaller quantity.  Any other quantity
        costs more and holds more shares for no gain, so no lexicographic
        optimum uses it; the last option is a (lowest on ties)."""
        q, p = key
        terms, k = self.terms, self.terms.k
        w = terms.scale * q - terms.thetaS[n] + k * p
        table = terms.buy_cost[n]
        options = [(0, 0)]
        best = 0
        for a in range(1, self.mu_max[n] + 1):
            val = w * a + k * table[a]
            if val < best:
                best = val
                options.append((a, val))
        mu = self._sell_qty(n, w, p, min(q, self.mu_max[n]))
        a = options[-1][0]
        (size,), _ = self.budget.purchase_rule((p,))
        entry = self.tables[n][key] = (
            mu, w, tuple(options), a, size * a, max(q - mu + a, 0),
            (mu - a) * p - terms.sell_cost[n][mu] - table[a])
        return entry

    def _sell_qty(self, n, w, p, hi) -> int:
        """The m <= hi minimising k*cost(m) - w*m among the quantities whose
        proceeds cover the fee, lowest m on ties."""
        stock, k = self.spec.stocks[n], self.terms.k
        table = self.terms.sell_cost[n]
        best_mu, best = 0, 0
        for m in range(1, hi + 1):
            if stock.proceeds(m, p) < 0:
                continue
            val = k * table[m] - w * m
            if val < best:
                best, best_mu = val, m
        return best_mu

    # -- selling -----------------------------------------------------------

    # Kept as a wrap point of perfbench/tracing.py; step does not call it.
    def sell(self, prices, queue) -> tuple:
        return tuple(e[0] for e in self._entries(prices, queue))

    # -- buying ------------------------------------------------------------

    # Kept as a wrap point of perfbench/tracing.py; step does not call it.
    def buy(self, prices, queue) -> tuple:
        return self.step(prices, queue)[1]

    def _exact(self, entries, prices) -> tuple:
        """Lexicographic minimum of (objective, total shares, buy vector)
        subject to the budget's purchase rule, sum_n sizes[n] * a_n <=
        limit, by a dict-keyed DP over the budget used on the undominated
        quantities of each stock only."""
        sizes, limit = self.budget.purchase_rule(prices)
        cap = self.cap
        work = 0
        dp = {0: (0, 0, ())}
        for (_, _, opts, *_), z in zip(entries, sizes):
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
                    # Only a money budget has a relaxation to suggest.
                    money = self.budget.mode == "money"
                    raise CapacityError(
                        f"{'money' if money else 'share'}-budget table "
                        f"reached {work} cells, over the cap of {cap}"
                        + ("; consider the greedy solver" if money else ""))
            dp = new
        return min(dp.values())[2]

    def _greedy(self, entries, prices) -> tuple:
        """Budget-relaxed sequential fill: repeatedly take the share block
        with the most negative average objective per cent of price; may
        overshoot the money budget by at most one share.

        Blocks (not single shares) are needed so a concave fixed fee whose
        first marginal is non-negative cannot hide a profitable bulk buy;
        for zero/linear costs a block is equivalent to single-share steps.

        Guarantee: the objective never exceeds the exact solver's budget-
        constrained minimum when there is no money budget (the fill is then
        the exact per-stock minimizer) or when buy costs are zero/linear.
        Under a money budget with hump-shaped costs (e.g. fixed fees) no
        bounded-overshoot ratio rule can promise that: amortizing a fee may
        require a block that earlier, better-ratio purchases have priced
        out of the remaining budget.  A block cut short by the budget stop
        is rolled back if its partial contribution is non-negative, so a
        truncated fee hump never makes the result worse.
        """
        x = self.budget.money if self.budget.mode == "money" else None
        coeffs = [e[1] for e in entries]
        k, costs = self.terms.k, self.terms.buy_cost
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
                table = costs[n]
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
            table = costs[best_n]
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

    def step(self, prices, queue) -> tuple:
        """One slot of the policy: (sells, buys, profit cents, next queue),
        the queue advancing by Q <- max(Q - mu + A, 0).

        The objective is separable, so when the per-stock minimisers fit
        the budget (always, with none) they are the exact solver's
        minimum: any vector reaching the same objective uses a per-stock
        minimum in every stock, hence holds at least as many shares.  Such
        a slot is put together from the minimisers' table records."""
        entries = self._entries(prices, queue)
        sells, _, _, buys, spend, nq, profits = zip(*entries)
        if self.slack_limit is not None and sum(spend) <= self.slack_limit:
            return sells, buys, sum(profits), nq
        buys = self._pick(self, entries, prices)
        nq = tuple([v - m + a if v - m + a > 0 else 0
                    for v, m, a in zip(queue, sells, buys)])
        return sells, buys, self.terms.profit(prices, sells, buys), nq


def _csv_header(n: int) -> list:
    return (["slot"] + [f"p_{i+1}" for i in range(n)]
            + [f"A_{i+1}" for i in range(n)]
            + [f"mu_{i+1}" for i in range(n)]
            + [f"Q_{i+1}" for i in range(n)] + ["profit"])


class Trajectory(Record):
    """Per-slot record of one run; the input every verifier consumes."""

    spec: MarketSpec
    params: TraderParams
    initial_queue: tuple
    prices: list = factory(list)
    buys: list = factory(list)
    sells: list = factory(list)
    queues: list = factory(list)   # post-decision
    profits: list = factory(list)  # cents

    @property
    def n_slots(self) -> int:
        return len(self.prices)

    def queue_at(self, t: int) -> tuple:
        """Queue at the start of slot t (t == n_slots gives the final queue)."""
        if not 0 <= t <= self.n_slots:
            raise StructuralError(f"slot {t} out of range")
        return self.initial_queue if t == 0 else self.queues[t - 1]

    def cumulative_profit(self) -> int:
        return sum(self.profits)

    def columns(self) -> tuple:
        """(queues, sells, buys) per stock, queues[n][t] at the start of
        slot t <= n_slots; built afresh, as a book may be edited after its
        run.  A row count or width that does not fit is a StructuralError."""
        n, q0 = self.spec.n_stocks, self.initial_queue
        if len(q0) != n:
            raise StructuralError(f"initial queue has {len(q0)} entries")
        for name, rows in (("queue", self.queues), ("sell", self.sells),
                           ("buy", self.buys)):
            if len(rows) != self.n_slots or set(map(len, rows)) - {n}:
                t = next((t for t, r in enumerate(rows) if len(r) != n), None)
                raise StructuralError(
                    f"{len(rows)} {name} rows for {self.n_slots} slots"
                    if t is None else f"slot {t}: {name} row has "
                    f"{len(rows[t])} entries, expected {n}")
        return tuple([list(map(itemgetter(i), rows)) for i in range(n)]
                     for rows in ([q0, *self.queues], self.sells, self.buys))

    def check_dynamics(self, columns=None):
        """Q(t+1) = max(Q(t) - mu(t) + A(t), 0) on every slot, exact;
        `columns`, when given, are this book's `columns()`."""
        bad = []
        for q, mu, a in zip(*(columns or self.columns())):
            sums = list(map(add, map(sub, q, mu), a))
            if sums != q[1:] or min(sums, default=0) < 0:
                bad += (t for t, (x, y) in enumerate(zip(sums, q[1:]))
                        if max(x, 0) != y)
        if bad:
            raise StructuralError(f"queue dynamics violated at slot {min(bad)}")

    def to_csv(self, stream):
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(_csv_header(self.spec.n_stocks))
        for t in range(self.n_slots):
            writer.writerow([t] + [cents_to_str(p) for p in self.prices[t]]
                            + list(self.buys[t]) + list(self.sells[t])
                            + list(self.queues[t])
                            + [cents_to_str(self.profits[t])])

    @staticmethod
    def from_csv(stream, spec: MarketSpec,
                 params: TraderParams) -> "Trajectory":
        """Read what to_csv writes.  A header, column count, slot number
        or price that does not fit that layout, or a price above its
        stock's cap, is a ParseError."""
        n = spec.n_stocks
        traj = Trajectory(spec, params, params.resolved_initial_queue(spec))
        columns = (("A", traj.buys), ("mu", traj.sells), ("Q", traj.queues))
        for rownum, row in _csv_rows(stream, _csv_header(n), "trajectory"):
            traj.prices.append(tuple(_parse_price_cell(c, rownum)
                                     for c in row[1:1 + n]))
            for s, p in zip(spec.stocks, traj.prices[-1]):
                if p > s.p_max:
                    raise _cap_error(p, s.p_max, s.index, rownum)
            for k, (name, out) in enumerate(columns, start=1):
                out.append(tuple(_integer(c, f"row {rownum}/{name}_{i + 1}")
                                 for i, c in enumerate(row[1 + k * n:][:n])))
            cell = row[-1]
            neg = cell.startswith("-")
            profit = _parse_price_cell(cell[1:] if neg else cell, rownum)
            traj.profits.append(-profit if neg else profit)
        return traj


def _walk_start(spec, params, solver, source, horizon, seed, stream):
    """(solver, support, seq, walk table, start row offset) of a run, the
    solver fresh when None; seq holds support indices.  A trace is solved
    here with no memo: seq holds its steps, the rest is None."""
    if horizon < 1:
        raise StructuralError("horizon must be at least 1")
    if isinstance(source, PriceTrace):
        if len(source) < horizon:
            raise StructuralError(
                f"trace has {len(source)} slots, horizon is {horizon}")
        source.check_against(spec, horizon)
        support, seq = None, source.sequence[:horizon]
    elif isinstance(source, PriceDistribution):
        source.check_against(spec)
        support = source.support
        seq = sample_iid_indices(source, horizon, make_rng(seed, stream))
    elif isinstance(source, MarkovPriceModel):
        source.check_against(spec)
        support = source.states
        seq = markov_state_sequence(source, 0, horizon, make_rng(seed, stream))
    else:
        raise StructuralError(f"unknown price source {type(source).__name__}")
    if solver is None:
        solver = SlotSolver(spec, params)
    elif solver.spec != spec or solver.params != params:
        raise StructuralError("solver was built for a different market "
                              "or trader parameters")
    q = params.resolved_initial_queue(spec)
    if support is None:
        hit = (None, None, None, q)   # each slot starts from the last's queue
        hits = [hit := solver.step(p, hit[3]) for p in seq]
        return solver, None, hits, None, None
    table = solver.memo.setdefault(support, ({}, [], [], [], [], {}))
    return solver, support, seq, table, _row(table, len(support), q)


def _row(table, k, queue) -> int:
    """Row offset of queue in a walk table; k new cells on a first visit."""
    nodes, queues, recs, gains, succ, _ = table
    if queue not in nodes:
        nodes[queue] = len(succ)
        queues.append(queue)
        recs += [None] * k
        gains += [0] * k
        succ += [-1] * k
    return nodes[queue]


def _solve_cell(solver, support, table, i) -> int:
    """Solve cell i of a walk table: point it at its interned (sells,
    buys, profit) record and link its successor, whose row offset it
    returns."""
    _, queues, recs, gains, succ, records = table
    k = len(support)
    sells, buys, profit, nq = solver.step(support[i % k], queues[i // k])
    rec = (sells, buys, profit)
    recs[i] = rec = records.setdefault(rec, rec)
    gains[i] = rec[2]
    succ[i] = base = _row(table, k, nq)
    return base


def run_backtest(spec: MarketSpec, params: TraderParams, source,
                 horizon: int, seed: int = 0, stream: int = 0, *,
                 solver: SlotSolver | None = None) -> Trajectory:
    """Full per-slot trajectory; deterministic given (seed, stream).
    A solver built for (spec, params) may be passed to share its memo.
    On an iid or Markov source each row of the book is a walk table's
    shared record or node key, not a copy."""
    traj = Trajectory(spec, params, params.resolved_initial_queue(spec))
    solver, support, seq, table, base = _walk_start(
        spec, params, solver, source, horizon, seed, stream)
    if support is None:
        traj.prices = list(source.sequence[:horizon])
        traj.sells, traj.buys, traj.profits, traj.queues = (
            list(map(itemgetter(j), seq)) for j in range(4))
        return traj
    traj.prices = list(map(support.__getitem__, seq))
    _, queues, recs, gains, succ, _ = table
    cells = []
    for code in seq:
        i = base + code
        base = succ[i]
        if base < 0:
            base = _solve_cell(solver, support, table, i)
        cells.append(i)
    rows = list(map(recs.__getitem__, cells))
    traj.sells, traj.buys = (list(map(itemgetter(j), rows)) for j in (0, 1))
    traj.profits = list(map(gains.__getitem__, cells))
    traj.queues = list(map(queues.__getitem__, map(
        floordiv, map(succ.__getitem__, cells), repeat(len(support)))))
    return traj


def run_profit(spec: MarketSpec, params: TraderParams, source,
               horizon: int, seed: int = 0, stream: int = 0, *,
               solver: SlotSolver | None = None):
    """Light-weight run: (total profit cents, final queue), no records."""
    solver, support, seq, table, base = _walk_start(
        spec, params, solver, source, horizon, seed, stream)
    if support is None:
        return sum(map(itemgetter(2), seq)), seq[-1][3]
    _, queues, _, gains, succ, _ = table
    total = 0
    for code in seq:
        i = base + code
        base = succ[i]
        if base < 0:
            base = _solve_cell(solver, support, table, i)
        total += gains[i]
    return total, queues[base // len(support)]


def scaled_windows_run(spec: MarketSpec, params: TraderParams, beta,
                       frame: int, frames_per_window: int, num_windows: int,
                       source, seed: int = 0):
    """Windowed runs with exponential re-scaling of the trade caps and V.

    Each window runs frame * frames_per_window slots with place-holder
    stock and zero actual initial shares.  After window w earning
    time-average profit q_w (dollars/slot), the next window's trade caps
    and V are scaled by (1 + beta * max(q_w, 0)) cumulatively; trade caps
    round down but never below 1.

    Returns a list of (q_w as Fraction dollars/slot, scale factor applied
    to window w as Fraction).
    """
    beta = _as_fraction(beta)
    if beta < 0:
        raise ConfigError("beta must be non-negative")
    if frame < 1 or frames_per_window < 1 or num_windows < 1:
        raise ConfigError("frame, frames_per_window, num_windows must be >= 1")
    W = frame * frames_per_window
    if isinstance(source, PriceTrace) and len(source) < W * num_windows:
        raise StructuralError("trace shorter than the full windowed horizon")
    results = []
    scale = Fraction(1)
    for w in range(num_windows):
        stocks = tuple(
            type(s)(s.index, max(1, int(s.mu_max * scale)), s.p_max,
                    s.buy_cost, s.sell_cost)
            for s in spec.stocks)
        wspec = MarketSpec(stocks, spec.budget)
        wparams = TraderParams(V=params.V * scale, placeholder=True,
                               buy_solver=params.buy_solver)
        if isinstance(source, PriceTrace):
            wsource = PriceTrace(source.sequence[w * W:(w + 1) * W],
                                 source=source.source)
        else:
            wsource = source
        total, _ = run_profit(wspec, wparams, wsource, W, seed=seed, stream=w)
        q_w = cents_to_units(total) / W
        results.append((q_w, scale))
        scale = scale * (1 + beta * max(q_w, Fraction(0)))
    return results
