"""The per-slot queue-driven trading policy.

Selling and buying each minimize a queue-weighted objective every slot:
sell side per stock, buy side jointly under the purchase budget.  Each
of the three buy solvers accepts only some budget modes: the exact DP
takes a money budget or none, the greedy relaxation a money budget or
none (with concave buy costs), and the share-budget fill a share budget
only.  All objective comparisons are done in scaled integer arithmetic
so trajectories are exactly reproducible and the downstream bound
verifiers can use zero tolerance.

Unit convention: prices and costs are integer cents; the aggressiveness
parameter V is per dollar.  Every V*price product is formed as
V * (cents/100), so targets and objectives match the dollar-denominated
formulas exactly.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .errors import CapacityError, ConfigError, StructuralError
from .market import MarketSpec
from .money import _as_fraction, _integer, cents_to_str, cents_to_units
from .prices import (MarkovPriceModel, PriceDistribution, PriceTrace, make_rng,
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


@dataclass(frozen=True)
class TraderParams:
    """Tuning knobs for the per-slot policy.

    theta and initial_queue default to the conforming choices (target rule
    above; initial queue at the per-stock trade cap).  Overrides are
    allowed but flagged non-conforming, which the band verifier reports.
    """

    V: Fraction
    theta: tuple | None = None
    initial_queue: tuple | None = None
    placeholder: bool = False
    buy_solver: str = "exact"     # "exact" | "greedy" | "share_budget"

    def __post_init__(self):
        object.__setattr__(self, "V", _as_fraction(self.V))
        if self.V <= 0:
            raise ConfigError("V must be positive")
        if self.buy_solver not in ("exact", "greedy", "share_budget"):
            raise ConfigError(f"unknown buy solver {self.buy_solver!r}")
        if self.theta is not None:
            object.__setattr__(self, "theta",
                               tuple(_as_fraction(t) for t in self.theta))
        if self.initial_queue is not None:
            object.__setattr__(self, "initial_queue",
                               tuple(_integer(q, f"initial_queue/{i}") for i, q
                                     in enumerate(self.initial_queue)))

    def resolved_theta(self, spec: MarketSpec) -> tuple:
        return self.theta if self.theta is not None else compute_theta(spec, self.V)

    def resolved_initial_queue(self, spec: MarketSpec) -> tuple:
        if self.initial_queue is not None:
            return self.initial_queue
        return tuple(s.mu_max for s in spec.stocks)

    def theta_conforms(self, spec: MarketSpec) -> bool:
        return self.resolved_theta(spec) == compute_theta(spec, self.V)

    def initial_conforms(self, spec: MarketSpec) -> bool:
        q0 = self.resolved_initial_queue(spec)
        return all(s.mu_max <= q <= self.V * cents_to_units(s.p_max) + 3 * s.mu_max
                   for s, q in zip(spec.stocks, q0))


def queue_band(spec: MarketSpec, params: TraderParams) -> tuple:
    """Per-stock (low, high) deterministic operating band for the queues."""
    return tuple((s.mu_max, params.V * cents_to_units(s.p_max) + 3 * s.mu_max)
                 for s in spec.stocks)


class SlotSolver:
    """Precomputed scaled-integer solver for one (spec, params) pair.

    The slot objective is scaled by S = lcm(100 * den(V), den(theta_n)) so
    every comparison is between Python ints.  k = S*V/100 multiplies any
    cents quantity to form a scaled V*money term.  Only the purchase
    budget couples the stocks, so `tables[n]` keeps stock n's entry per
    (q_n, p_n) pair seen, at most p_max_n + 1 per queue value, for the buy
    solver to combine.  Decisions depend only on (queue, prices), so for
    as long as the solver lives, across every run given it, `memo` maps
    each price support of k vectors of an iid or Markov run to its walk
    table (nodes, cells).  `nodes` numbers each queue vector on its first
    visit and maps it to its row offset node * k in `cells`.  The cell at
    offset + code holds (prices, step, successor offset) once the pair
    (queue, support[code]) is solved, else None.
    """

    def __init__(self, spec: MarketSpec, params: TraderParams):
        self.spec = spec
        self.params = params
        theta = params.resolved_theta(spec)
        if len(theta) != spec.n_stocks:
            raise StructuralError("theta dimensioned for a different market")
        S = 100 * params.V.denominator
        for t in theta:
            S = math.lcm(S, t.denominator)
        self.scale = S
        self.k = (S // (100 * params.V.denominator)) * params.V.numerator
        self.thetaS = tuple(int(t * S) for t in theta)
        self.theta = theta
        self.mu_max = tuple(s.mu_max for s in spec.stocks)
        self.sell_cost = tuple(tuple(s.sell_cost(m) for m in range(s.mu_max + 1))
                               for s in spec.stocks)
        self.buy_cost = tuple(tuple(s.buy_cost(a) for a in range(s.mu_max + 1))
                              for s in spec.stocks)
        self.budget = spec.budget
        self.cap = capacity_cells()
        self.memo: dict = {}
        self.tables = tuple({} for _ in spec.stocks)
        # A plain function: a bound method would make each solver a cycle.
        self._pick = {"exact": SlotSolver._exact, "greedy": SlotSolver._greedy,
                      "share_budget": SlotSolver._share_budget}[
                          params.buy_solver]
        where = "/trader/buy_solver"
        if params.buy_solver == "share_budget" and self.budget.mode != "shares":
            raise ConfigError("share_budget solver needs a share budget",
                              location=where)
        if params.buy_solver == "exact" and self.budget.mode == "shares":
            raise ConfigError("exact solver handles money or no budget; "
                              "use the share_budget solver", location=where)
        if params.buy_solver == "greedy" and self.budget.mode == "shares":
            raise ConfigError("greedy solver relaxes a money budget; "
                              "use the share_budget solver", location=where)
        if params.buy_solver == "greedy":
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
        """Store and return stock n's entry at key = (q, p).  The options
        are (a, w*a + k*cost(a)) for each quantity a whose term is strictly
        below that of every smaller quantity.  Any other quantity costs
        more and holds more shares for no gain, so no lexicographic optimum
        uses it; the last option is the per-stock minimiser (lowest a on
        ties)."""
        q, p = key
        k = self.k
        w = self.scale * q - self.thetaS[n] + k * p
        table = self.buy_cost[n]
        options = [(0, 0)]
        best = 0
        for a in range(1, self.mu_max[n] + 1):
            val = w * a + k * table[a]
            if val < best:
                best = val
                options.append((a, val))
        mu = self._sell_qty(n, w, p, min(q, self.mu_max[n]))
        entry = self.tables[n][key] = (mu, w, tuple(options))
        return entry

    def _sell_qty(self, n, w, p, hi) -> int:
        """The m <= hi minimising k*cost(m) - w*m among the quantities whose
        proceeds cover the fee, lowest m on ties."""
        stock, table, k = self.spec.stocks[n], self.sell_cost[n], self.k
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
        return self._pick(self, self._entries(prices, queue), prices)

    def _exact(self, entries, prices) -> tuple:
        if self.budget.mode == "none":
            return tuple([e[2][-1][0] for e in entries])
        return self._budget_dp(entries, prices, self.budget.money,
                               "money-budget table",
                               "; consider the greedy solver")

    def _budget_dp(self, entries, sizes, limit, what, hint="") -> tuple:
        """Lexicographic minimum of (objective, total shares, buy vector)
        subject to sum_n sizes[n] * a_n <= limit.

        The objective is separable, so when the per-stock minimisers fit
        the budget they are that minimum: any vector reaching the same
        objective uses a per-stock minimum in every stock, hence holds at
        least as many shares.  Otherwise a dict-keyed DP over the budget
        used runs on the undominated quantities of each stock only."""
        best = tuple([e[2][-1][0] for e in entries])
        if sum(a * z for a, z in zip(best, sizes)) <= limit:
            return best
        cap = self.cap
        work = 0
        dp = {0: (0, 0, ())}
        for (_, _, opts), z in zip(entries, sizes):
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

    def _share_budget(self, entries, prices) -> tuple:
        a_tot = self.budget.shares
        k = self.k
        if all(s.buy_cost.kind in ("zero", "linear") for s in self.spec.stocks):
            # Constant per-share weights: fill negative weights in
            # ascending order, lower index first on ties.
            weights = []
            for n, (_, w, _) in enumerate(entries):
                rate = self.spec.stocks[n].buy_cost.rate \
                    if self.spec.stocks[n].buy_cost.kind == "linear" else 0
                weights.append((w + k * rate, n))
            A = [0] * len(entries)
            remaining = a_tot
            for weight, n in sorted(w for w in weights if w[0] < 0):
                take = min(self.mu_max[n], remaining)
                A[n] = take
                remaining -= take
                if remaining == 0:
                    break
            return tuple(A)
        return self._budget_dp(entries, (1,) * len(entries), a_tot,
                               "share-budget table")

    def step(self, prices, queue) -> tuple:
        """One slot of the policy: (sells, buys, profit cents, next queue),
        the queue advancing by Q <- max(Q - mu + A, 0)."""
        entries = self._entries(prices, queue)
        sells = tuple([e[0] for e in entries])
        buys = self._pick(self, entries, prices)
        nq = tuple([v - m + a if v - m + a > 0 else 0
                    for v, m, a in zip(queue, sells, buys)])
        return sells, buys, self.profit(prices, sells, buys), nq

    # -- objective bookkeeping (used by solvers' tests and verifiers) ------

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


def startup_cost(spec: MarketSpec, prices) -> int:
    """Cents to buy the per-stock trade cap of every stock at given prices."""
    prices = spec.check_prices(prices)
    return sum(s.outlay(s.mu_max, p) for s, p in zip(spec.stocks, prices))


def placeholder_wrap(params: TraderParams, spec: MarketSpec) -> TraderParams:
    """Augment the initial queue with one trade cap of fake shares per stock.

    params.initial_queue is interpreted as the *actual* holdings (default
    all zero).  The returned params start the policy inside its operating
    band without any startup purchase; the band guarantee ensures fake
    shares are never sold.
    """
    real = params.initial_queue if params.initial_queue is not None \
        else (0,) * spec.n_stocks
    for s, q in zip(spec.stocks, real):
        hi = params.V * cents_to_units(s.p_max) + 2 * s.mu_max
        if not 0 <= q <= hi:
            raise StructuralError(
                f"actual holdings {q} outside [0, {hi}] for stock {s.index}")
    augmented = tuple(q + s.mu_max for q, s in zip(real, spec.stocks))
    return replace(params, initial_queue=augmented, placeholder=True)


@dataclass
class Trajectory:
    """Per-slot record of one run; the input every verifier consumes."""

    spec: MarketSpec
    params: TraderParams
    initial_queue: tuple
    prices: list = field(default_factory=list)
    buys: list = field(default_factory=list)
    sells: list = field(default_factory=list)
    queues: list = field(default_factory=list)   # post-decision
    profits: list = field(default_factory=list)  # cents

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

    def real_queue_at(self, t: int) -> tuple:
        """Actual holdings at slot t (subtracts fake shares when present)."""
        q = self.queue_at(t)
        if not self.params.placeholder:
            return q
        return tuple(v - s.mu_max for v, s in zip(q, self.spec.stocks))

    def check_dynamics(self):
        q = self.initial_queue
        for t in range(self.n_slots):
            expected = tuple(max(v - m + a, 0)
                             for v, m, a in zip(q, self.sells[t], self.buys[t]))
            if expected != self.queues[t]:
                raise StructuralError(f"queue dynamics violated at slot {t}")
            q = self.queues[t]

    def to_csv(self, stream):
        n = self.spec.n_stocks
        writer = csv.writer(stream, lineterminator="\n")
        header = (["slot"] + [f"p_{i+1}" for i in range(n)]
                  + [f"A_{i+1}" for i in range(n)]
                  + [f"mu_{i+1}" for i in range(n)]
                  + [f"Q_{i+1}" for i in range(n)] + ["profit"])
        writer.writerow(header)
        for t in range(self.n_slots):
            writer.writerow([t] + [cents_to_str(p) for p in self.prices[t]]
                            + list(self.buys[t]) + list(self.sells[t])
                            + list(self.queues[t])
                            + [cents_to_str(self.profits[t])])

    @staticmethod
    def from_csv(stream, spec: MarketSpec, params: TraderParams,
                 initial_queue=None) -> "Trajectory":
        from .prices import _parse_price_cell
        reader = csv.reader(stream)
        next(reader)  # header
        n = spec.n_stocks
        traj = Trajectory(spec, params,
                          tuple(initial_queue) if initial_queue is not None
                          else params.resolved_initial_queue(spec))
        columns = (("A", traj.buys), ("mu", traj.sells), ("Q", traj.queues))
        for rownum, row in enumerate(reader, start=1):
            if len(row) != 4 * n + 2:
                raise StructuralError(f"row {rownum}: wrong column count")
            traj.prices.append(tuple(_parse_price_cell(c, rownum)
                                     for c in row[1:1 + n]))
            for k, (name, out) in enumerate(columns, start=1):
                out.append(tuple(_integer(c, f"row {rownum}/{name}_{i + 1}")
                                 for i, c in enumerate(row[1 + k * n:][:n])))
            traj.profits.append(_parse_price_cell(row[-1].lstrip("-"), rownum)
                                * (-1 if row[-1].startswith("-") else 1))
        return traj


def _price_sequence(spec, source, horizon, seed, stream):
    """(None, prices) for a trace; (support, per-slot support indices)
    for an iid or Markov source."""
    if horizon < 1:
        raise StructuralError("horizon must be at least 1")
    if isinstance(source, PriceTrace):
        if len(source) < horizon:
            raise StructuralError(
                f"trace has {len(source)} slots, horizon is {horizon}")
        source.check_against(spec, horizon)
        return None, source.sequence[:horizon]
    rng = make_rng(seed, stream)
    if isinstance(source, PriceDistribution):
        source.check_against(spec)
        return source.support, sample_iid_indices(source, horizon, rng)
    if isinstance(source, MarkovPriceModel):
        source.check_against(spec)
        return source.states, markov_state_sequence(source, 0, horizon, rng)
    raise StructuralError(f"unknown price source {type(source).__name__}")


def _slots(spec, params, solver, source, horizon, seed, stream):
    """Yield (prices, (sells, buys, profit, next queue), successor) for
    every slot, each distinct (queue, support index) pair solved once per
    solver (a fresh one when solver is None) and its successor the next
    queue's offset in the walk table; a trace's slots are solved with no
    memo and a successor of None."""
    support, seq = _price_sequence(spec, source, horizon, seed, stream)
    if solver is None:
        solver = SlotSolver(spec, params)
    elif solver.spec != spec or solver.params != params:
        raise StructuralError("solver was built for a different market "
                              "or trader parameters")
    step = solver.step
    q = params.resolved_initial_queue(spec)
    if support is None:
        for p in seq:
            hit = step(p, q)
            yield p, hit, None
            q = hit[3]
        return
    nodes, cells = solver.memo.setdefault(support, ({}, []))
    k = len(support)

    def row(queue):
        base = nodes.get(queue)
        if base is None:
            base = nodes[queue] = len(nodes) * k
            if base == len(cells):
                # Doubling: a long list grown a row at a time is copied
                # often enough to slow the solver down.
                cells.extend([None] * max(k, base))
        return base

    # The cell whose step reached the current queue; at the start, a
    # stand-in holding the initial queue.
    last = (None, (None, None, None, q), row(q))
    for code in seq:
        cell = cells[last[2] + code]
        if cell is None:
            p = support[code]
            hit = step(p, last[1][3])
            cell = cells[last[2] + code] = (p, hit, row(hit[3]))
        yield cell
        last = cell


def run_backtest(spec: MarketSpec, params: TraderParams, source,
                 horizon: int, seed: int = 0, stream: int = 0, *,
                 solver: SlotSolver | None = None) -> Trajectory:
    """Full per-slot trajectory; deterministic given (seed, stream).
    A solver built for (spec, params) may be passed to share its memo."""
    traj = Trajectory(spec, params, params.resolved_initial_queue(spec))
    ap, ab, as_, aq, apr = (traj.prices.append, traj.buys.append,
                            traj.sells.append, traj.queues.append,
                            traj.profits.append)
    for p, (sells, buys, profit, nq), _ in _slots(spec, params, solver,
                                                 source, horizon, seed,
                                                 stream):
        ap(p); ab(buys); as_(sells); aq(nq); apr(profit)
    return traj


def run_profit(spec: MarketSpec, params: TraderParams, source,
               horizon: int, seed: int = 0, stream: int = 0, *,
               solver: SlotSolver | None = None):
    """Light-weight run: (total profit cents, final queue), no records."""
    total = 0
    for _, (_, _, profit, q), _ in _slots(spec, params, solver, source,
                                          horizon, seed, stream):
        total += profit
    return total, q


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
        wparams = placeholder_wrap(
            TraderParams(V=params.V * scale, buy_solver=params.buy_solver,
                         initial_queue=(0,) * spec.n_stocks),
            wspec)
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
