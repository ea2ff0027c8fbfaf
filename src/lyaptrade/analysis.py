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
from itertools import compress
from operator import itemgetter, mul, sub

from .errors import StatisticalPowerError, StructuralError
from .market import (BUY_LIMIT, SELL_LIMIT, MarketSpec, TradeDecision,
                     slot_profit, validate_decision)
from .money import _as_fraction, cents_to_units
from .trader import TraderParams, Trajectory, queue_band, scaled_terms

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
                "slack": None if self.slack == math.inf else float(self.slack),
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


def _int_lt_threshold(thr: Fraction) -> int:
    """Largest integer q with q < thr."""
    return math.ceil(thr) - 1


def _int_gt_threshold(thr: Fraction) -> int:
    """Smallest integer q with q > thr."""
    return math.floor(thr) + 1


def verify_queue_band(traj: Trajectory, columns=None) -> BoundReport:
    """Deterministic operating band plus the no-sell-below / no-buy-above
    event checks, exact on every slot, one stock column of `columns` (the
    book's own unless given) at a time.  In a slot, every stock's events
    come before the band; a pass is located at the first (slot, stock) of
    least slack."""
    spec, params = traj.spec, traj.params
    fails, slacks = [], []
    for i, (q, mu, a, s, th, (low, high)) in enumerate(zip(
            *(columns or traj.columns()), spec.stocks,
            params.resolved_theta(spec),
            queue_band(spec, params))):
        high = math.floor(high)
        s_thr = _int_lt_threshold(th - params.V * cents_to_units(s.p_max))
        b_thr = _int_gt_threshold(th)
        if not low <= q[0] <= high:
            return BoundReport(FAIL, -1.0, ("initial", i),
                               {"check": "band", "queue": q[0]})
        if min(compress(q, mu), default=s_thr + 1) <= s_thr:
            t = next(t for t, (v, m) in enumerate(zip(q, mu))
                     if m and v <= s_thr)
            fails.append(((t, 0, i, 0), {"check": "sell_below_threshold"}))
        if max(compress(q, a), default=b_thr - 1) >= b_thr:
            t = next(t for t, (v, b) in enumerate(zip(q, a))
                     if b and v >= b_thr)
            fails.append(((t, 0, i, 1), {"check": "buy_above_target"}))
        after = q[1:]
        slack = min(min(after, default=low) - low,
                    high - max(after, default=high))
        if slack < 0:
            t = next(t for t, v in enumerate(after) if not low <= v <= high)
            fails.append(((t, 1, i), {"check": "band", "queue": after[t]}))
        elif after:
            t = min(after.index(v) for v in (low + slack, high - slack)
                    if v in after)
            slacks.append((slack, (t, i)))
    if fails:
        key, detail = min(fails, key=itemgetter(0))
        return BoundReport(FAIL, -1.0, (key[0], key[2]), detail)
    worst, locus = min(slacks, default=(math.inf, None))
    detail = {"check": "band",
              "conforming": params.theta_conforms(spec) and
              params.initial_conforms(spec)}
    return BoundReport(PASS, float(worst), locus, detail)


def _check_alternative(spec, sell_cost, prices, d: TradeDecision):
    """Raise unless d passes validate_decision at prices with no queue
    (virtual alternatives skip ownership).  The prices' caps, the trade
    caps, the fee cover from the sell cost tables `sell_cost` and the
    budget are checked here; validate_decision only words the error."""
    n = spec.n_stocks
    if len(prices) == n == len(d.buys) and all(
            0 <= q <= s.p_max and 0 <= a <= s.mu_max and 0 <= m <= s.mu_max
            and m * q >= tab[m] for s, tab, q, a, m
            in zip(spec.stocks, sell_cost, prices, d.buys, d.sells)):
        sizes, limit = spec.budget.purchase_rule(prices)
        if sum(map(mul, d.buys, sizes)) <= limit:
            return
    verdict = validate_decision(spec, prices, None, d)
    if not verdict.ok:
        raise StructuralError(f"infeasible alternative: {verdict.violations}")


def _cap_breach(traj: Trajectory, slots, check, locus):
    """A FAIL at `locus` naming the first trade cap that the book's own
    decision breaks in `slots` (a stock's sell, then its buy, outside
    0..mu_max), else None.  The cost tables hold no other quantity."""
    for t in slots:
        for s, m, a in zip(traj.spec.stocks, traj.sells[t], traj.buys[t]):
            if 0 <= m <= s.mu_max and 0 <= a <= s.mu_max:
                continue
            for rule, v in ((SELL_LIMIT, m), (BUY_LIMIT, a)):
                if not 0 <= v <= s.mu_max:
                    return BoundReport(FAIL, -1.0, locus,
                                       {"check": check, "rule": rule,
                                        "slot": t, "stock": s.index})
    return None


def verify_slot_optimality(traj: Trajectory, alternatives) -> BoundReport:
    """Per-slot minimality of the queue-weighted objective against any
    feasible alternative decisions; exact in scaled integers.  A book
    decision outside the trade caps is a FAIL at its slot.

    alternatives: iterable of (slot, TradeDecision)."""
    spec, params = traj.spec, traj.params
    terms = scaled_terms(spec, params)
    worst, locus = math.inf, None
    for t, alt in alternatives:
        if not 0 <= t < traj.n_slots:
            raise StructuralError(f"slot {t} outside trajectory")
        breach = _cap_breach(traj, (t,), "slot_optimality", t)
        if breach:
            return breach
        prices = traj.prices[t]
        _check_alternative(spec, terms.sell_cost, prices, alt)
        q = traj.queue_at(t)
        ours = terms.scaled_objective(prices, q, traj.sells[t], traj.buys[t])
        theirs = terms.scaled_objective(prices, q, alt.sells, alt.buys)
        slack = theirs - ours
        if slack < 0:
            return BoundReport(FAIL, float(Fraction(slack, terms.scale)),
                               t, {"check": "slot_optimality"})
        if slack < worst:
            worst, locus = slack, t
    worst_f = math.inf if worst == math.inf \
        else float(Fraction(worst, terms.scale))
    return BoundReport(PASS, worst_f, locus, {"check": "slot_optimality"})


def _phi_dollars(spec, prices, d: TradeDecision) -> Fraction:
    return cents_to_units(slot_profit(spec, prices, d))


def verify_tslot_lemma(traj: Trajectory, alt_sequence, t0: int,
                       window: int) -> BoundReport:
    """Windowed sample-path drift bound against any feasible alternative
    decision sequence for the frame, exact in scaled integers:

        ΔL - V·Σφ(ours) <= D·T² - V·Σφ(alt) + Σ|Q_n(t0) - θ_n|·net_n,

    net_n the alternative's sells less buys over the frame.  With
    S = lcm(100·den V, den θ_n), x_n = S·Q_n - S·θ_n and k = S·V/100, 2S²
    times the slack is 2S²·D·T² + 2S·(k·(P_ours - P_alt) + Σ|x_0,n|·net_n)
    - Σ(x_end² - x_0²), P the frame profit in cents.  A book decision
    outside the trade caps is a FAIL naming the rule, slot and stock."""
    T = window
    if len(alt_sequence) != T:
        raise StructuralError("alternative sequence length differs from frame")
    if t0 < 0 or t0 + T > traj.n_slots:
        raise StructuralError("frame outside the trajectory")
    if T < 1:
        raise StructuralError("window must be a positive integer")
    slots = range(t0, t0 + T)
    breach = _cap_breach(traj, slots, "frame_drift_bound", (t0, T))
    if breach:
        return breach
    spec = traj.spec
    terms = scaled_terms(spec, traj.params)
    S, thetaS, profit = terms.scale, terms.thetaS, terms.profit
    # 2S²·D·T², an integer: 2T²·D = (3T² + 2T + 1)·Σμ_n².
    bound = S * S * (3 * T * T + 2 * T + 1) * sum(s.mu_max ** 2
                                                  for s in spec.stocks)
    gain = 0  # our frame profit less the alternative's, in cents
    for p, m, a, alt in zip(traj.prices[t0:t0 + T], traj.sells[t0:t0 + T],
                            traj.buys[t0:t0 + T], alt_sequence):
        _check_alternative(spec, terms.sell_cost, p, alt)
        gain += profit(p, m, a) - profit(p, alt.sells, alt.buys)
    net = map(sum, zip(*(map(sub, alt.sells, alt.buys)
                         for alt in alt_sequence)))
    x0 = [S * q - ts for q, ts in zip(traj.queue_at(t0), thetaS)]
    x1 = [S * q - ts for q, ts in zip(traj.queue_at(t0 + T), thetaS)]
    slack = bound + 2 * S * (terms.k * gain
                             + sum(map(mul, map(abs, x0), net))) \
        - sum(b * b - a * a for a, b in zip(x0, x1))
    return BoundReport(PASS if slack >= 0 else FAIL, slack / (2 * S * S),
                       (t0, T), {"check": "frame_drift_bound"})


def verify_thm3(traj: Trajectory, psi_cents, window: int) -> BoundReport:
    """Deterministic frame-lookahead profit bound, exact in cents.

    psi_cents: optimal lookahead profits of the first len(psi_cents)
    frames of the same trace."""
    spec, params = traj.spec, traj.params
    T, M = window, len(psi_cents)
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


def _profit_report(run_profits_cents, horizon, bound, check,
                   min_runs) -> BoundReport:
    """The ensemble mean of the per-slot profit against `bound` with a
    3-sigma margin; vacuous when the bound is below the trivially
    achievable 0."""
    if len(run_profits_cents) < min_runs:
        raise StatisticalPowerError(
            f"need at least {min_runs} replications, got {len(run_profits_cents)}")
    import numpy as np
    arr = np.array([float(cents_to_units(p) / horizon)
                    for p in run_profits_cents])
    mean = arr.mean()
    sigma = arr.std(ddof=1) / math.sqrt(len(arr)) if len(arr) > 1 else 0.0
    slack = mean - float(bound) + 3 * sigma
    if bound < 0:
        verdict = VACUOUS
    else:
        verdict = PASS if slack >= 0 else FAIL
    return BoundReport(verdict, slack, None,
                       {"check": check, "mean": mean, "sigma": sigma,
                        "bound": float(bound)})


def verify_thm1_profit(run_profits_cents, horizon: int, spec: MarketSpec,
                       params: TraderParams, phi_opt,
                       min_runs: int = 30) -> BoundReport:
    """In-expectation profit bound for i.i.d. prices,
    phi_opt - B/V - L(Q(0))/(V t), checked against a 3-sigma margin of
    the ensemble-mean estimator.

    run_profits_cents: per-replication total profits over `horizon` slots."""
    theta = params.resolved_theta(spec)
    q0 = params.resolved_initial_queue(spec)
    B = compute_constants(spec, 1).B
    bound = Fraction(phi_opt) - B / params.V \
        - lyapunov(q0, theta) / (params.V * horizon)
    return _profit_report(run_profits_cents, horizon, bound,
                          "iid_profit_bound", min_runs)


def verify_thm2_profit(run_profits_cents, M: int, window: int,
                       epsilon, spec: MarketSpec, params: TraderParams,
                       phi_opt, min_runs: int = 30) -> BoundReport:
    """In-expectation profit bound under the decaying-memory assumption,
    over M windows of `window` slots; 3-sigma margin, with vacuous
    classification when the bound falls below the trivially achievable 0."""
    horizon = M * window
    consts = compute_constants(spec, window, epsilon)
    theta = params.resolved_theta(spec)
    q0 = params.resolved_initial_queue(spec)
    bound = Fraction(phi_opt) - consts.C2 * consts.epsilon \
        - consts.C1 * window / params.V \
        - lyapunov(q0, theta) / (params.V * horizon)
    return _profit_report(run_profits_cents, horizon, bound,
                          "memory_profit_bound", min_runs)


def check_frame_drift(traj: Trajectory, window: int,
                      columns=None) -> int | None:
    """T-slot drift bound ΔL <= B̃T² - Σ(Q_n(t0) - θ_n)·net_n on every
    full frame t0 = 0, T, 2T, ..., exact; the start t0 of the first frame
    that fails, or None when every frame holds, over `columns` if given.

    With S the lcm of θ's denominators and x_n = S·Q_n - S·θ_n, twice
    S² times the bound is Σx_end² - Σx_0² <= (T² + 1)·S²·Σmu_n² -
    2S·Σx_0,n·net_n: plain integer terms per stock column and frame."""
    if window < 1:
        raise StructuralError("window must be a positive integer")
    theta = traj.params.resolved_theta(traj.spec)
    S = math.lcm(*(t.denominator for t in theta))
    const = (window * window + 1) * S * S \
        * sum(s.mu_max ** 2 for s in traj.spec.stocks)
    terms = []
    for q, mu, a, ts in zip(*(columns or traj.columns()),
                            (int(t * S) for t in theta)):
        x = [S * v - ts for v in q[::window]]
        net = map(sum, zip(*[iter(map(sub, mu, a))] * window))
        terms.append([x1 * x1 - x0 * x0 + 2 * S * x0 * d
                      for x0, x1, d in zip(x, x[1:], net)])
    lhs = list(map(sum, zip(*terms)))
    if max(lhs, default=const) <= const:
        return None
    return next(m for m, v in enumerate(lhs) if v > const) * window


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
