"""Parity of the column-sweep trajectory checks and the per-side
brute-force oracle with the code they replaced.

The reference functions below are the row-wise checks, copied verbatim:
`Trajectory.check_dynamics`, `verify_queue_band` and `check_frame_drift`
walked the book one slot at a time, and `brute_force_slot_min` compared
every (sells, buys) pair by the summed side scores.  Each is compared
with the live code on seeded random books, clean and forged, and on
random slots; reports, return values and exception messages must match.
"""

import math
import random
from fractions import Fraction
from types import SimpleNamespace

from lyaptrade import (BudgetMode, CostFunction, MarketSpec, StockSpec,
                       TraderParams, Trajectory, cli, run_backtest)
from lyaptrade.analysis import (FAIL, PASS, BoundReport, _int_gt_threshold,
                                _int_lt_threshold, check_frame_drift,
                                verify_queue_band)
from lyaptrade.errors import LyaptradeError, StructuralError
from lyaptrade.market import TradeDecision
from lyaptrade.money import cents_to_units
from lyaptrade.oracles import _feasible, brute_force_slot_min
from lyaptrade.trader import SlotSolver, queue_band

from conftest import random_dist, random_small_spec, random_trace


def reference_check_dynamics(self):
    q = self.initial_queue
    for t in range(self.n_slots):
        expected = tuple(max(v - m + a, 0)
                         for v, m, a in zip(q, self.sells[t], self.buys[t]))
        if expected != self.queues[t]:
            raise StructuralError(f"queue dynamics violated at slot {t}")
        q = self.queues[t]


def reference_verify_queue_band(traj: Trajectory) -> BoundReport:
    """Deterministic operating band plus the no-sell-below / no-buy-above
    event checks, exact on every slot."""
    spec, params = traj.spec, traj.params
    theta = params.resolved_theta(spec)
    V = params.V
    n = spec.n_stocks
    band = queue_band(spec, params)
    lo = [low for low, _ in band]
    hi = [math.floor(high) for _, high in band]
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


def reference_check_frame_drift(traj: Trajectory, window: int) -> int | None:
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


def reference_brute_force_slot_min(params, spec, prices, queue):
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


def outcome(fn, *args):
    """What fn returns, or the class and message of what it raises."""
    try:
        return fn(*args)
    except LyaptradeError as exc:
        return type(exc), str(exc)


def _params(rng, spec):
    V = rng.choice((1, 5, 20, 50, Fraction(35, 3)))
    theta = None
    if rng.random() < 0.3:
        theta = tuple(Fraction(rng.randrange(1, 900), rng.randint(1, 7))
                      for _ in spec.stocks)
    return TraderParams(V=V, theta=theta, placeholder=rng.random() < 0.25)


def _book(rng):
    spec = random_small_spec(rng, max_stocks=4, max_mu=3)
    params = _params(rng, spec)
    if rng.random() < 0.05:
        return Trajectory(spec, params, params.resolved_initial_queue(spec))
    horizon = rng.randint(1, 45)
    source = random_trace(rng, spec, horizon) if rng.random() < 0.5 \
        else random_dist(rng, spec, rng.randint(2, 4))
    return run_backtest(spec, params, source, horizon, seed=rng.randrange(99))


def _set(rows, t, i, value):
    row = list(rows[t])
    row[i] = value
    rows[t] = tuple(row)


def _rebuild_queues(traj, floor=0):
    q = traj.initial_queue
    for t in range(traj.n_slots):
        q = tuple(max(v - m + a, floor)
                  for v, m, a in zip(q, traj.sells[t], traj.buys[t]))
        traj.queues[t] = q


def _forge(rng, traj, rule):
    """Edit the book at a random slot so that `rule` can trip there."""
    spec, params = traj.spec, traj.params
    t = rng.randrange(traj.n_slots)
    i = rng.randrange(spec.n_stocks)
    if rule == "dynamics" and rng.random() < 0.5:
        _set(traj.queues, t, i, traj.queues[t][i] + rng.choice((-1, 1, 2)))
    elif rule == "dynamics":
        # A sale past the holdings, booked as a negative queue.
        _set(traj.sells, t, i, traj.queue_at(t)[i] + traj.buys[t][i] + 1)
        _rebuild_queues(traj, floor=-math.inf)
    elif rule == "band":
        lo, hi = queue_band(spec, params)[i]
        _set(traj.queues, t, i, rng.choice((lo - 1, math.floor(hi) + 1)))
    elif rule in ("sell", "buy"):
        theta = params.resolved_theta(spec)[i]
        if rule == "sell":
            thr = _int_lt_threshold(
                theta - params.V * cents_to_units(spec.stocks[i].p_max))
            slots = [u for u in range(traj.n_slots)
                     if traj.queue_at(u)[i] <= thr]
        else:
            thr = _int_gt_threshold(theta)
            slots = [u for u in range(traj.n_slots)
                     if traj.queue_at(u)[i] >= thr]
        if slots:
            side = traj.sells if rule == "sell" else traj.buys
            _set(side, rng.choice(slots), i, rng.randint(1, 3))
    else:  # frame: trades past mu_max, queues rebuilt to keep the dynamics
        side = traj.buys if rng.random() < 0.5 else traj.sells
        _set(side, t, i, rng.randint(2, 5) * spec.stocks[i].mu_max + 1)
        _rebuild_queues(traj)


RULES = ("dynamics", "band", "sell", "buy", "frame")


def test_checks_match_row_wise_reference():
    rng = random.Random(20091)
    tripped = {}
    for trial in range(400):
        traj = _book(rng)
        if traj.n_slots and trial % 3:
            for _ in range(rng.randint(1, 2)):
                _forge(rng, traj, rng.choice(RULES))
        got = outcome(traj.check_dynamics)
        assert got == outcome(reference_check_dynamics, traj), trial
        tripped["dynamics"] = tripped.get("dynamics", 0) + (got is not None)
        report = verify_queue_band(traj)
        assert report == reference_verify_queue_band(traj), trial
        key = report.detail["check"] if report.verdict == FAIL else PASS
        tripped[key] = tripped.get(key, 0) + 1
        for window in range(1, 8):
            t0 = check_frame_drift(traj, window)
            assert t0 == reference_check_frame_drift(traj, window), \
                (trial, window)
            tripped["frame"] = tripped.get("frame", 0) + (t0 is not None)
    for rule in ("dynamics", "band", "sell_below_threshold",
                 "buy_above_target", "frame", PASS):
        assert tripped.get(rule, 0) >= 5, tripped


def test_horizons_off_the_window_grid():
    rng = random.Random(77)
    for horizon in range(1, 16):
        spec = random_small_spec(rng, max_stocks=2, max_mu=2)
        traj = run_backtest(spec, TraderParams(V=5), random_trace(rng, spec,
                                                                  horizon),
                            horizon)
        _forge(rng, traj, "frame")
        for window in range(1, 8):
            assert check_frame_drift(traj, window) \
                == reference_check_frame_drift(traj, window)
    assert outcome(check_frame_drift, traj, 0) \
        == outcome(reference_check_frame_drift, traj, 0)


def _hand_book(initial, rows):
    """Two stocks, mu 1, p_max $1, V 10: band [1, 13], a sale at a queue
    of 1 or less and a buy at 13 or more trip the event checks.  rows:
    (sells, buys, queue after) per slot."""
    spec = MarketSpec((StockSpec(0, 1, 100), StockSpec(1, 1, 100)))
    traj = Trajectory(spec, TraderParams(V=10), initial)
    for sells, buys, after in rows:
        traj.prices.append((100, 100))
        traj.sells.append(sells)
        traj.buys.append(buys)
        traj.queues.append(after)
        traj.profits.append(0)
    return traj


def test_queue_band_reports_events_before_the_band():
    rows = [((0, 0), (0, 0), (5, 5)), ((0, 0), (0, 0), (5, 1)),
            ((0, 1), (0, 0), (0, 0))]
    # Slot 2: stock 1 sells at queue 1, stock 0 leaves the band.
    report = verify_queue_band(_hand_book((5, 5), rows))
    assert (report.locus, report.detail) \
        == ((2, 1), {"check": "sell_below_threshold"})
    # A buy of stock 0 at queue 13 in the same slot comes first.
    rows[1] = ((0, 0), (0, 0), (13, 1))
    rows[2] = ((0, 1), (1, 0), (0, 0))
    report = verify_queue_band(_hand_book((5, 5), rows))
    assert (report.locus, report.detail) \
        == ((2, 0), {"check": "buy_above_target"})
    # A band failure one slot earlier comes before both.
    rows[1] = ((0, 0), (0, 0), (13, 14))
    report = verify_queue_band(_hand_book((5, 5), rows))
    assert (report.locus, report.detail) \
        == ((1, 1), {"check": "band", "queue": 14})
    # And the initial band before everything.
    report = verify_queue_band(_hand_book((0, 5), rows))
    assert (report.locus, report.detail) \
        == (("initial", 0), {"check": "band", "queue": 0})


def test_queue_band_pass_locus_is_first_worst_slot_major():
    def locus(queues):
        rows = [((0, 0), (0, 0), q) for q in queues]
        report = verify_queue_band(_hand_book((5, 5), rows))
        assert report.verdict == PASS
        return report.slack, report.locus

    assert locus([(5, 5), (5, 2), (2, 5), (7, 7)]) == (1.0, (1, 1))
    assert locus([(5, 5), (2, 2)]) == (1.0, (1, 0))
    assert locus([(5, 12), (2, 5)]) == (1.0, (0, 1))
    assert locus([(3, 5), (5, 11), (13, 7)]) == (0.0, (2, 0))
    assert locus([]) == (math.inf, None)


def test_brute_force_breaks_budget_ties_by_shares():
    # Buys (2, 0) and (1, 2) tie on the objective; (1, 2) is the lower
    # vector, but the smaller trade wins.
    spec = MarketSpec((StockSpec(0, 3, 100),
                       StockSpec(1, 2, 200, CostFunction("fixed", fee=127))),
                      BudgetMode("money", money=181))
    args = (TraderParams(V=10), spec, (73, 43), (8, 13))
    score = SlotSolver(spec, TraderParams(V=10)).scaled_objective
    assert score(*args[2:], (0, 0), (2, 0)) == score(*args[2:], (0, 0), (1, 2))
    got = brute_force_slot_min(*args)
    assert got.buys == (2, 0)
    assert got == reference_brute_force_slot_min(*args)


def test_brute_force_matches_pairwise_reference():
    rng = random.Random(4099)
    for trial in range(1500):
        spec = random_small_spec(rng, max_stocks=3, max_mu=2)
        params = _params(rng, spec)
        band = queue_band(spec, params)
        prices = tuple(0 if rng.random() < 0.3
                       else rng.randrange(0, s.p_max + 1) for s in spec.stocks)
        queue = tuple(rng.randrange(0, int(hi) + 6) for _, hi in band)
        if trial % 3 == 0:
            # Zero prices at a queue on its target: ties to break.
            theta = params.resolved_theta(spec)
            prices = (0,) + prices[1:]
            queue = (math.floor(theta[0]),) + queue[1:]
        assert brute_force_slot_min(params, spec, prices, queue) \
            == reference_brute_force_slot_min(params, spec, prices, queue), \
            trial


def test_deterministic_checks_read_each_book_as_handed(monkeypatch):
    # The columns are built once per call and handed to every check, so
    # a book forged after a passing call fails each check where that
    # check, called alone, finds it; nothing is read from the old book.
    passes = []
    columns = Trajectory.columns

    def counted(self):
        passes.append(self)
        return columns(self)

    rng = random.Random(18)
    tripped = dict.fromkeys(("dynamics", "queue_band", "frame_drift"), 0)
    for trial in range(300):
        traj = _book(rng)
        if not traj.n_slots:
            continue
        T = rng.randint(1, 6)
        cfg = SimpleNamespace(verify=tuple(tripped), options={"window": T},
                              seed=1)
        cli._deterministic_checks(cfg, traj.spec, traj.params, traj, 3)
        _forge(rng, traj, rng.choice(RULES))
        monkeypatch.setattr(Trajectory, "columns", counted)
        passes.clear()
        got = cli._deterministic_checks(cfg, traj.spec, traj.params, traj, 3)
        monkeypatch.setattr(Trajectory, "columns", columns)
        assert passes == [traj], trial
        error = outcome(traj.check_dynamics)
        assert got["dynamics"] == (
            BoundReport(PASS, detail={"check": "dynamics"}) if error is None
            else BoundReport(FAIL, -1.0, 3, {"check": "dynamics",
                                             "error": error[1]})), trial
        assert got["queue_band"] == verify_queue_band(traj), trial
        t0 = check_frame_drift(traj, T)
        assert got["frame_drift"].locus == (3 if t0 is None
                                            else {"rep": 3, "t0": t0}), trial
        for name, report in got.items():
            tripped[name] += not report.ok
    assert min(tripped.values()) >= 20, tripped
