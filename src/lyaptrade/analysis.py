"""Bound constants, Lyapunov quantities, and trajectory verifiers.

Deterministic sample-path claims are checked with zero tolerance in
exact rational arithmetic; in-expectation claims are checked against a
3-sigma margin of the ensemble-mean estimator.  Every verifier is a pure
function: same inputs, same report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import StatisticalPowerError, StructuralError
from .market import MarketSpec, TradeDecision, slot_profit, validate_decision
from .money import _as_fraction, cents_to_units
from .trader import SlotSolver, TraderParams, Trajectory

PASS, FAIL, VACUOUS = "pass", "fail", "vacuous-pass"


@dataclass(frozen=True)
class BoundConstants:
    """Constants in the drift and profit bounds, in dollar/share units."""

    B: Fraction
    B_tilde: Fraction
    D: Fraction
    C1: Fraction
    C2: Fraction
    window: int
    epsilon: Fraction


@dataclass
class BoundReport:
    verdict: str
    slack: float = math.inf      # worst-case margin; negative iff fail
    locus: object = None         # slot/frame/stock of the tightest point
    detail: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.verdict in (PASS, VACUOUS)

    def merge(self, other: "BoundReport") -> "BoundReport":
        worse = self if (not self.ok, self.slack) <= (not other.ok, other.slack) \
            else other
        return BoundReport(worse.verdict, worse.slack, worse.locus, worse.detail)

    def to_json(self) -> dict:
        return {"verdict": self.verdict,
                "slack": None if self.slack is math.inf else float(self.slack),
                "locus": self.locus, "detail": self.detail}


def compute_constants(spec: MarketSpec, window: int, epsilon=0) -> BoundConstants:
    if window < 1:
        raise StructuralError("window must be a positive integer")
    epsilon = _as_fraction(epsilon)
    if epsilon < 0:
        raise StructuralError("epsilon must be non-negative")
    T = window
    mu_sq = sum(Fraction(s.mu_max) ** 2 for s in spec.stocks)
    mu_sum = sum(Fraction(s.mu_max) for s in spec.stocks)
    B = mu_sq / 2
    B_tilde = Fraction(1 + Fraction(1, T * T), 2) * mu_sq
    D = (Fraction(3, 2) + Fraction(1, 2 * T * T) + Fraction(1, T)) * mu_sq
    C1 = D + (epsilon / T) * mu_sum
    C2 = 1 + sum(cents_to_units(s.p_max) for s in spec.stocks)
    return BoundConstants(B, B_tilde, D, C1, C2, T, epsilon)


def lyapunov(queue, theta) -> Fraction:
    """Half the squared distance of the queues from their targets."""
    if len(queue) != len(theta):
        raise StructuralError("queue and theta dimensions differ")
    return sum((Fraction(q) - t) ** 2 for q, t in zip(queue, theta)) / 2


def sample_path_drift(traj: Trajectory, t0: int, window: int) -> Fraction:
    if window < 1:
        raise StructuralError("window must be a positive integer")
    if t0 < 0 or t0 + window > traj.n_slots:
        raise StructuralError("frame outside the trajectory")
    theta = traj.params.resolved_theta(traj.spec)
    return lyapunov(traj.queue_at(t0 + window), theta) \
        - lyapunov(traj.queue_at(t0), theta)


def _int_lt_threshold(thr: Fraction) -> int:
    """Largest integer q with q < thr."""
    return math.ceil(thr) - 1


def _int_gt_threshold(thr: Fraction) -> int:
    """Smallest integer q with q > thr."""
    return math.floor(thr) + 1


def verify_queue_band(traj: Trajectory) -> BoundReport:
    """Deterministic operating band plus the no-sell-below / no-buy-above
    event checks, exact on every slot."""
    spec, params = traj.spec, traj.params
    theta = params.resolved_theta(spec)
    V = params.V
    n = spec.n_stocks
    lo = [s.mu_max for s in spec.stocks]
    hi = [math.floor(V * cents_to_units(s.p_max) + 3 * s.mu_max)
          for s in spec.stocks]
    sell_thr = [_int_lt_threshold(theta[i] - V * cents_to_units(s.p_max))
                for i, s in enumerate(spec.stocks)]
    buy_thr = [_int_gt_threshold(theta[i]) for i in range(n)]
    worst = math.inf
    locus = None
    q = traj.initial_queue
    for i in range(n):
        if not lo[i] <= q[i] <= hi[i]:
            return BoundReport(FAIL, -1.0, ("initial", i),
                               {"check": "band", "queue": q[i]})
    for t in range(traj.n_slots):
        sells = traj.sells[t]
        buys = traj.buys[t]
        for i in range(n):
            if q[i] <= sell_thr[i] and sells[i] != 0:
                return BoundReport(FAIL, -1.0, (t, i),
                                   {"check": "sell_below_threshold"})
            if q[i] >= buy_thr[i] and buys[i] != 0:
                return BoundReport(FAIL, -1.0, (t, i),
                                   {"check": "buy_above_target"})
        q = traj.queues[t]
        for i in range(n):
            if not lo[i] <= q[i] <= hi[i]:
                return BoundReport(FAIL, -1.0, (t, i),
                                   {"check": "band", "queue": q[i]})
            slack = min(q[i] - lo[i], hi[i] - q[i])
            if slack < worst:
                worst, locus = slack, (t, i)
    detail = {"check": "band",
              "conforming": params.theta_conforms(spec) and
              params.initial_conforms(spec)}
    return BoundReport(PASS, float(worst), locus, detail)


def _check_alternative(spec, prices, d: TradeDecision):
    # Virtual alternatives skip the ownership constraint.
    verdict = validate_decision(spec, prices, None, d)
    if not verdict.ok:
        raise StructuralError(f"infeasible alternative: {verdict.violations}")


def verify_slot_optimality(traj: Trajectory, alternatives) -> BoundReport:
    """Per-slot minimality of the queue-weighted objective against any
    feasible alternative decisions; exact in scaled integers.

    alternatives: iterable of (slot, TradeDecision)."""
    spec, params = traj.spec, traj.params
    solver = SlotSolver(spec, params)
    worst = math.inf
    locus = None
    for t, alt in alternatives:
        if not 0 <= t < traj.n_slots:
            raise StructuralError(f"slot {t} outside trajectory")
        prices = traj.prices[t]
        _check_alternative(spec, prices, alt)
        q = traj.queue_at(t)
        ours = solver.scaled_objective(prices, q, traj.sells[t], traj.buys[t])
        theirs = solver.scaled_objective(prices, q, alt.sells, alt.buys)
        slack = theirs - ours
        if slack < 0:
            return BoundReport(FAIL, float(Fraction(slack, solver.scale)),
                               t, {"check": "slot_optimality"})
        if slack < worst:
            worst, locus = slack, t
    scale = solver.scale
    worst_f = math.inf if worst is math.inf else float(Fraction(worst, scale))
    return BoundReport(PASS, worst_f, locus, {"check": "slot_optimality"})


def _phi_dollars(spec, prices, d: TradeDecision) -> Fraction:
    return cents_to_units(slot_profit(spec, prices, d))


def verify_tslot_lemma(traj: Trajectory, alt_sequence, t0: int,
                       window: int) -> BoundReport:
    """Windowed sample-path drift bound against any feasible alternative
    decision sequence for the frame; exact."""
    spec, params = traj.spec, traj.params
    T = window
    if len(alt_sequence) != T:
        raise StructuralError("alternative sequence length differs from frame")
    if t0 < 0 or t0 + T > traj.n_slots:
        raise StructuralError("frame outside the trajectory")
    theta = params.resolved_theta(spec)
    V = params.V
    D = compute_constants(spec, T).D
    drift = sample_path_drift(traj, t0, T)
    lhs = drift
    rhs = D * T * T
    for k in range(T):
        t = t0 + k
        prices = traj.prices[t]
        alt = alt_sequence[k]
        _check_alternative(spec, prices, alt)
        lhs -= V * _phi_dollars(spec, prices,
                                TradeDecision(traj.buys[t], traj.sells[t]))
        rhs -= V * _phi_dollars(spec, prices, alt)
    q0 = traj.queue_at(t0)
    for i in range(spec.n_stocks):
        gap = abs(Fraction(q0[i]) - theta[i])
        rhs += gap * sum(alt.sells[i] - alt.buys[i] for alt in alt_sequence)
    slack = rhs - lhs
    verdict = PASS if slack >= 0 else FAIL
    return BoundReport(verdict, float(slack), (t0, T),
                       {"check": "frame_drift_bound"})


def verify_thm3(traj: Trajectory, psi_cents, M: int, window: int) -> BoundReport:
    """Deterministic frame-lookahead profit bound, exact in cents.

    psi_cents: per-frame optimal lookahead profits on the same trace."""
    spec, params = traj.spec, traj.params
    T = window
    if len(psi_cents) != M:
        raise StructuralError("need one lookahead value per frame")
    if traj.n_slots < M * T:
        raise StructuralError("trajectory shorter than the framed horizon")
    theta = params.resolved_theta(spec)
    V = params.V
    D = compute_constants(spec, T).D
    achieved = cents_to_units(sum(traj.profits[:M * T])) / (M * T)
    target = cents_to_units(sum(psi_cents)) / (M * T)
    bound = target - D * T / V - lyapunov(traj.initial_queue, theta) / (M * T * V)
    slack = achieved - bound
    return BoundReport(PASS if slack >= 0 else FAIL, float(slack), None,
                       {"check": "lookahead_profit_bound",
                        "achieved": float(achieved), "bound": float(bound)})


def _ensemble_mean(avgs):
    import numpy as np
    arr = np.array([float(a) for a in avgs])
    mean = arr.mean()
    sigma = arr.std(ddof=1) / math.sqrt(len(arr)) if len(arr) > 1 else 0.0
    return mean, sigma


def verify_thm1_profit(run_profits_cents, horizon: int, spec: MarketSpec,
                       params: TraderParams, phi_opt,
                       min_runs: int = 30) -> BoundReport:
    """In-expectation profit bound for i.i.d. prices, checked against a
    3-sigma margin of the ensemble-mean estimator.

    run_profits_cents: per-replication total profits over `horizon` slots."""
    if len(run_profits_cents) < min_runs:
        raise StatisticalPowerError(
            f"need at least {min_runs} replications, got {len(run_profits_cents)}")
    theta = params.resolved_theta(spec)
    q0 = params.resolved_initial_queue(spec)
    B = compute_constants(spec, 1).B
    bound = Fraction(phi_opt) - B / params.V \
        - lyapunov(q0, theta) / (params.V * horizon)
    avgs = [cents_to_units(p) / horizon for p in run_profits_cents]
    mean, sigma = _ensemble_mean(avgs)
    slack = mean - float(bound) + 3 * sigma
    if bound < 0:
        verdict = VACUOUS
    else:
        verdict = PASS if slack >= 0 else FAIL
    return BoundReport(verdict, slack, None,
                       {"check": "iid_profit_bound", "mean": mean,
                        "sigma": sigma, "bound": float(bound)})


def verify_thm2_profit(run_profits_cents, M: int, window: int,
                       epsilon, spec: MarketSpec, params: TraderParams,
                       phi_opt, min_runs: int = 30) -> BoundReport:
    """In-expectation profit bound under the decaying-memory assumption,
    over M windows of `window` slots; 3-sigma margin, with vacuous
    classification when the bound falls below the trivially achievable 0."""
    if len(run_profits_cents) < min_runs:
        raise StatisticalPowerError(
            f"need at least {min_runs} replications, got {len(run_profits_cents)}")
    horizon = M * window
    consts = compute_constants(spec, window, epsilon)
    theta = params.resolved_theta(spec)
    q0 = params.resolved_initial_queue(spec)
    bound = Fraction(phi_opt) - consts.C2 * consts.epsilon \
        - consts.C1 * window / params.V \
        - lyapunov(q0, theta) / (params.V * horizon)
    avgs = [cents_to_units(p) / horizon for p in run_profits_cents]
    mean, sigma = _ensemble_mean(avgs)
    slack = mean - float(bound) + 3 * sigma
    if bound < 0:
        verdict = VACUOUS
    else:
        verdict = PASS if slack >= 0 else FAIL
    return BoundReport(verdict, slack, None,
                       {"check": "memory_profit_bound", "mean": mean,
                        "sigma": sigma, "bound": float(bound)})


def time_avg_profit(profits_cents, t: int | None = None, z: float = 1.96):
    """Time-average profit in dollars.

    For a single run pass the per-slot cents list: returns the plain
    average over the first t slots.  For an ensemble pass a list of
    per-run totals with t = horizon: returns (mean, CI half-width)."""
    if t is None:
        t = len(profits_cents)
    if isinstance(profits_cents[0], (list, tuple)):
        raise StructuralError("pass per-run totals, not nested lists")
    values = [float(cents_to_units(p)) / t for p in profits_cents]
    if len(values) == 1:
        return values[0], 0.0
    mean, sigma = _ensemble_mean(values)
    return mean, z * sigma


# -- per-slot and per-frame drift inequalities (property-test fodder) ------

def check_one_slot_drift(traj: Trajectory, t: int) -> bool:
    """Single-slot quadratic drift expansion, exact."""
    theta = traj.params.resolved_theta(traj.spec)
    drift = lyapunov(traj.queue_at(t + 1), theta) - lyapunov(traj.queue_at(t), theta)
    q = traj.queue_at(t)
    rhs = Fraction(0)
    for i in range(traj.spec.n_stocks):
        net = traj.sells[t][i] - traj.buys[t][i]
        rhs += Fraction(net * net, 2) - (Fraction(q[i]) - theta[i]) * net
    return drift <= rhs


def check_frame_drift(traj: Trajectory, window: int) -> int | None:
    """T-slot drift bound ΔL <= B̃T² - Σ(Q_n(t0) - θ_n)·net_n on every
    full frame t0 = 0, T, 2T, ..., exact; the start t0 of the first frame
    that fails, or None when every frame holds.

    With S the lcm of θ's denominators and x_n = S·Q_n - S·θ_n, twice
    S² times the bound is Σx_end² - Σx_0² <= (T² + 1)·S²·Σmu_n² -
    2S·Σx_0,n·net_n, so one pass in plain integers checks every frame."""
    if window < 1:
        raise StructuralError("window must be a positive integer")
    theta = traj.params.resolved_theta(traj.spec)
    S = math.lcm(*(t.denominator for t in theta))
    theta_s = [int(t * S) for t in theta]
    const = (window * window + 1) * S * S \
        * sum(s.mu_max ** 2 for s in traj.spec.stocks)
    x0 = [S * q - ts for q, ts in zip(traj.initial_queue, theta_s)]
    net = [0] * len(x0)
    slots = zip(traj.sells, traj.buys, traj.queues)
    for t, (sells, buys, queue) in enumerate(slots, 1):
        net = [v + s - b for v, s, b in zip(net, sells, buys)]
        if t % window:
            continue
        x1 = [S * q - ts for q, ts in zip(queue, theta_s)]
        lhs = sum(x * x for x in x1) - sum(x * x for x in x0)
        if lhs > const - 2 * S * sum(x * v for x, v in zip(x0, net)):
            return t - window
        x0, net = x1, [0] * len(x0)
    return None


def check_shifted_slot(traj: Trajectory, t0: int, tau: int,
                       alt: TradeDecision) -> bool:
    """Slot objective at tau weighted by the frame-start queue, exact:
    shifting the queue reference costs at most 2|tau-t0| sum mu_max^2."""
    spec, params = traj.spec, traj.params
    theta = params.resolved_theta(spec)
    V = params.V
    prices = traj.prices[tau]
    _check_alternative(spec, prices, alt)
    q0 = traj.queue_at(t0)
    mu_sq = sum(Fraction(s.mu_max) ** 2 for s in spec.stocks)

    def weighted(d: TradeDecision) -> Fraction:
        val = -V * _phi_dollars(spec, prices, d)
        for i in range(spec.n_stocks):
            val -= (Fraction(q0[i]) - theta[i]) * (d.sells[i] - d.buys[i])
        return val

    ours = weighted(TradeDecision(traj.buys[tau], traj.sells[tau]))
    theirs = weighted(alt)
    return ours <= 2 * abs(tau - t0) * mu_sq + theirs


def measure_memory_epsilon(model, solution, window: int) -> Fraction:
    """Worst window-averaged deviation of the optimal price-only policy's
    conditional drift and profit from their steady-state values, over all
    conditioning histories of the chain.

    By the Markov property the history collapses to the previous state,
    so the deviation is evaluated exactly, in Fractions, from powers of
    the transition matrix rather than sampled.
    """
    spec = solution.spec
    n = spec.n_stocks
    P = model.transition
    by_price = dict(solution.policy.table)
    # Per state: the policy's expected net purchase of each stock, then
    # its expected profit; their steady-state values are 0 and phi_opt.
    step = [[sum(q * (d.buys[i] - d.sells[i]) for d, q in by_price[price])
             for i in range(n)]
            + [sum(q * _phi_dollars(spec, price, d) for d, q in by_price[price])]
            for price in model.states]
    steady = [0] * n + [solution.phi_opt]
    # Sum P^t @ step over the window's offsets t = 1..window.
    total = [[0] * (n + 1) for _ in P]
    for _ in range(window):
        step = [[sum(p * row[c] for p, row in zip(P_s, step))
                 for c in range(n + 1)] for P_s in P]
        total = [[a + b for a, b in zip(t, s)] for t, s in zip(total, step)]
    return max(abs(v / window - v0)
               for row in total for v, v0 in zip(row, steady))
