"""Lemma checkers, book and policy readers that only the tests call.

`reference_tslot_lemma` is the T-slot frame lemma in `Fraction`s, the
reference that `lyaptrade.analysis.verify_tslot_lemma`, written in scaled
integers, is compared with bit for bit; it checks each alternative by
`validate_decision` alone, not by the cost tables the live check reads.
The others check the paper's
one-slot drift expansion and its shifted-queue step, read a place-holder
book's actual holdings and the start-up purchase it avoids, and read a
price-only policy's table.  `reference_scaled_terms` is the scaled frame
as `SlotSolver.__init__` built it for itself, the reference for
`lyaptrade.trader.scaled_terms`.
"""

import math
from fractions import Fraction

from lyaptrade.analysis import (FAIL, PASS, BoundReport, _phi_dollars,
                                compute_constants, lyapunov)
from lyaptrade.errors import StructuralError
from lyaptrade.market import TradeDecision, validate_decision


def _check_alternative(spec, prices, d: TradeDecision):
    # Virtual alternatives skip the ownership constraint.
    verdict = validate_decision(spec, prices, None, d)
    if not verdict.ok:
        raise StructuralError(f"infeasible alternative: {verdict.violations}")


def sample_path_drift(traj, t0: int, window: int) -> Fraction:
    if window < 1:
        raise StructuralError("window must be a positive integer")
    if t0 < 0 or t0 + window > traj.n_slots:
        raise StructuralError("frame outside the trajectory")
    theta = traj.params.resolved_theta(traj.spec)
    return lyapunov(traj.queue_at(t0 + window), theta) \
        - lyapunov(traj.queue_at(t0), theta)


def reference_tslot_lemma(traj, alt_sequence, t0: int,
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


def reference_scaled_terms(spec, params) -> tuple:
    """(S, k, S*theta, sell cost tables, buy cost tables), built as the
    solver built them."""
    theta = params.resolved_theta(spec)
    if len(theta) != spec.n_stocks:
        raise StructuralError("theta dimensioned for a different market")
    S = 100 * params.V.denominator
    for t in theta:
        S = math.lcm(S, t.denominator)
    k = (S // (100 * params.V.denominator)) * params.V.numerator
    thetaS = tuple(int(t * S) for t in theta)
    sell_cost = tuple(tuple(s.sell_cost(m) for m in range(s.mu_max + 1))
                      for s in spec.stocks)
    buy_cost = tuple(tuple(s.buy_cost(a) for a in range(s.mu_max + 1))
                     for s in spec.stocks)
    return S, k, thetaS, sell_cost, buy_cost


def check_one_slot_drift(traj, t: int) -> bool:
    """Single-slot quadratic drift expansion, exact."""
    theta = traj.params.resolved_theta(traj.spec)
    drift = lyapunov(traj.queue_at(t + 1), theta) - lyapunov(traj.queue_at(t), theta)
    q = traj.queue_at(t)
    rhs = Fraction(0)
    for i in range(traj.spec.n_stocks):
        net = traj.sells[t][i] - traj.buys[t][i]
        rhs += Fraction(net * net, 2) - (Fraction(q[i]) - theta[i]) * net
    return drift <= rhs


def check_shifted_slot(traj, t0: int, tau: int, alt: TradeDecision) -> bool:
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


def real_queue_at(traj, t: int) -> tuple:
    """Actual holdings at slot t (subtracts fake shares when present)."""
    q = traj.queue_at(t)
    if not traj.params.placeholder:
        return q
    return tuple(v - s.mu_max for v, s in zip(q, traj.spec.stocks))


def startup_cost(spec, prices) -> int:
    """Cents to buy the per-stock trade cap of every stock at given prices."""
    prices = spec.check_prices(prices)
    return sum(s.outlay(s.mu_max, p) for s, p in zip(spec.stocks, prices))


def actions_for(policy, price):
    """A price-only policy's (decision, probability) pairs at `price`."""
    for p, acts in policy.table:
        if p == price:
            return acts
    raise StructuralError(f"price {price} not in policy support")


def check_simplex(policy):
    for _, acts in policy.table:
        total = sum(q for _, q in acts)
        if total != 1 or any(q < 0 or q > 1 for _, q in acts):
            raise StructuralError("policy probabilities are not a simplex")
