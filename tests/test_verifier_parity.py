"""Parity of the column-sweep trajectory checks, the per-side
brute-force oracle and the integer frame lemma with the code they
replaced.

The reference functions below are the row-wise checks, copied verbatim:
`Trajectory.check_dynamics`, `verify_queue_band` and `check_frame_drift`
walked the book one slot at a time, and `brute_force_slot_min` compared
every (sells, buys) pair by the summed side scores.  The `Fraction` frame
lemma is `reference_helpers.reference_tslot_lemma`.  Each is compared
with the live code on seeded random books, clean and forged, and on
random slots; reports, return values and exception messages must match.
Forged books then go through `lyaptrade verify`.
"""

import contextlib
import io
import itertools
import json
import math
import random
from fractions import Fraction
from types import SimpleNamespace

from lyaptrade import (BudgetMode, CostFunction, MarketSpec, StockSpec,
                       TraderParams, Trajectory, cli, enumerate_actions,
                       lookahead_psi, run_backtest)
from lyaptrade.analysis import (FAIL, PASS, BoundReport, _int_gt_threshold,
                                _int_lt_threshold, check_frame_drift,
                                verify_queue_band, verify_slot_optimality,
                                verify_thm3, verify_tslot_lemma)
from lyaptrade.errors import LyaptradeError, StructuralError
from lyaptrade.market import TradeDecision
from lyaptrade.money import cents_to_units
from lyaptrade.oracles import (DEFAULT_ENUM_CAP, _feasible,
                               brute_force_slot_min)
from lyaptrade.prices import PriceTrace
from lyaptrade.trader import (SlotSolver, capacity_cells, queue_band,
                              scaled_terms)

from conftest import random_cost, random_dist, random_small_spec, random_trace
from reference_helpers import reference_tslot_lemma


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
    score = scaled_terms(spec, params).scaled_objective
    buy_set, sell_set = _feasible(spec, prices, queue,
                                  capacity_cells(DEFAULT_ENUM_CAP))
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
    score = scaled_terms(spec, TraderParams(V=10)).scaled_objective
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
    # A forged book that breaks the queue recursion is a dynamics failure
    # alone (test_checks_match_row_wise_reference checks each check on
    # those books one at a time).
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
        cfg = SimpleNamespace(verify=tuple(tripped), window=T, seed=1)
        cli._deterministic_checks(cfg, traj.spec, traj.params, traj, 3)
        _forge(rng, traj, rng.choice(RULES))
        monkeypatch.setattr(Trajectory, "columns", counted)
        passes.clear()
        got = cli._deterministic_checks(cfg, traj.spec, traj.params, traj, 3)
        monkeypatch.setattr(Trajectory, "columns", columns)
        assert passes == [traj], trial
        error = outcome(traj.check_dynamics)
        if error is not None:
            assert got == {"dynamics": BoundReport(
                FAIL, -1.0, 3, {"check": "dynamics", "error": error[1]})}, \
                trial
            tripped["dynamics"] += 1
            continue
        assert got["dynamics"] == BoundReport(
            PASS, detail={"check": "dynamics"}), trial
        assert got["queue_band"] == verify_queue_band(traj), trial
        t0 = check_frame_drift(traj, T)
        assert got["frame_drift"].locus == (3 if t0 is None
                                            else {"rep": 3, "t0": t0}), trial
        for name, report in got.items():
            tripped[name] += not report.ok
    assert min(tripped.values()) >= 20, tripped


# -- the frame lemma in scaled integers ------------------------------------

def _lemma_book(rng):
    """A run on a random market: 1-3 stocks, every cost kind, any budget,
    a fractional V or theta, a place-holder start, either solver."""
    stocks = []
    for i in range(rng.randint(1, 3)):
        mu, p_max = rng.randint(1, 2), rng.choice((100, 150, 200, 300))
        costs = [random_cost(rng, mu, p_max) if rng.random() < 0.7
                 else CostFunction("table", values=tuple(itertools.accumulate(
                     (rng.randrange(0, p_max // 2) for _ in range(mu)),
                     initial=0)))
                 for _ in range(2)]
        stocks.append(StockSpec(i, mu, p_max, *costs))
    budget = rng.choice((BudgetMode(),
                         BudgetMode("money", money=rng.randrange(100, 900)),
                         BudgetMode("shares", shares=rng.randint(1, 4))))
    spec = MarketSpec(tuple(stocks), budget)
    theta = None
    if rng.random() < 0.3:
        theta = tuple(Fraction(rng.randrange(1, 900), rng.randint(1, 9))
                      for _ in spec.stocks)
    greedy = budget.mode != "shares" and rng.random() < 0.3 and all(
        s.buy_cost.is_concave(s.mu_max) for s in spec.stocks)
    params = TraderParams(V=rng.choice((1, 5, 50, Fraction(35, 3),
                                        Fraction(7, 4))),
                          theta=theta, placeholder=rng.random() < 0.25,
                          buy_solver="greedy" if greedy else "exact")
    horizon = rng.randint(4, 16)
    return run_backtest(spec, params, random_trace(rng, spec, horizon),
                        horizon)


def _forge_in_caps(rng, traj):
    """A random in-cap decision at a random slot, queues rebuilt; the
    slot."""
    t = rng.randrange(traj.n_slots)
    for side in (traj.sells, traj.buys):
        side[t] = tuple(rng.randint(0, s.mu_max) for s in traj.spec.stocks)
    _rebuild_queues(traj)
    return t


def _bits(report):
    return report.verdict, report.slack.hex(), report.locus, report.detail


def test_integer_lemma_matches_fraction_reference():
    rng = random.Random(19)
    kinds = set()
    verdicts = {PASS: 0, FAIL: 0}
    for trial in range(150):
        traj = _lemma_book(rng)
        # A forged slot lies in every frame checked on its book.
        t = _forge_in_caps(rng, traj) if trial % 2 else None
        spec = traj.spec
        kinds.add(spec.budget.mode)
        kinds.update(c.kind for s in spec.stocks
                     for c in (s.buy_cost, s.sell_cost))
        for _ in range(4):
            T = rng.randint(1, 4)
            t0 = rng.randrange(traj.n_slots - T + 1) if t is None else \
                rng.randint(max(t - T + 1, 0), min(t, traj.n_slots - T))
            window = traj.prices[t0:t0 + T]
            for alts in (lookahead_psi(spec, window).decisions,
                         [TradeDecision.zero(spec.n_stocks)] * T,
                         [rng.choice(enumerate_actions(spec, p).actions)
                          for p in window]):
                got = verify_tslot_lemma(traj, alts, t0, T)
                assert _bits(got) == _bits(reference_tslot_lemma(
                    traj, alts, t0, T)), (trial, t0, T)
                verdicts[got.verdict] += 1
    assert kinds >= {"none", "money", "shares",
                     "zero", "linear", "fixed", "table"}, kinds
    assert min(verdicts.values()) >= 20, verdicts


def test_integer_lemma_errors_match_reference():
    rng = random.Random(7)
    traj = _lemma_book(rng)
    zero = TradeDecision.zero(traj.spec.n_stocks)
    over = TradeDecision((traj.spec.stocks[0].mu_max + 1,)
                         + zero.buys[1:], zero.sells)
    for alts, t0, T in (([zero] * 2, 0, 3), ([zero] * 3, -1, 3),
                        ([zero] * 3, traj.n_slots - 2, 3), ([], 0, 0),
                        ([over], 0, 1)):
        got = outcome(verify_tslot_lemma, traj, alts, t0, T)
        assert isinstance(got, tuple) and got[0] is StructuralError
        assert got == outcome(reference_tslot_lemma, traj, alts, t0, T)


def test_over_cap_book_is_a_located_fail():
    # Each value outside 0..mu_max, read from a cost table, raised an
    # IndexError or, when negative, wrapped round.
    spec = MarketSpec((StockSpec(0, 1, 100), StockSpec(1, 2, 100)))
    params = TraderParams(V=5)
    trace = PriceTrace(((50, 60),) * 8)
    for side, rule in (("buys", "buy_limit"), ("sells", "sell_limit")):
        for value in (2, 3, -1):
            traj = run_backtest(spec, params, trace, 8)
            _set(getattr(traj, side), 6, 0, value)
            _rebuild_queues(traj)
            detail = {"rule": rule, "slot": 6, "stock": 0}
            zero = [TradeDecision.zero(2)] * 4
            assert verify_tslot_lemma(traj, zero, 4, 4) == BoundReport(
                FAIL, -1.0, (4, 4), {"check": "frame_drift_bound", **detail})
            assert verify_tslot_lemma(traj, zero, 0, 4).ok
            alts = [(t, TradeDecision.zero(2)) for t in (3, 6, 7)]
            assert verify_slot_optimality(traj, alts) == BoundReport(
                FAIL, -1.0, 6, {"check": "slot_optimality", **detail})


def test_thm3_checks_every_frame_and_keeps_a_passing_report():
    rng = random.Random(23)
    failed = 0
    for trial in range(120):
        traj = _lemma_book(rng)
        T = rng.randint(1, 4)
        forged = trial % 2
        for _ in range(forged * traj.n_slots // 2):
            _forge_in_caps(rng, traj)
        cfg = SimpleNamespace(verify=("thm3",), window=T, seed=1)
        got = cli._deterministic_checks(cfg, traj.spec, traj.params, traj,
                                        2)["thm3"]
        M = traj.n_slots // T
        frames = [lookahead_psi(traj.spec, traj.prices[t0:t0 + T])
                  for t0 in range(0, M * T, T)]
        lemmas = [verify_tslot_lemma(traj, f.decisions, m * T, T)
                  for m, f in enumerate(frames)]
        bad = next((m for m, r in enumerate(lemmas) if not r.ok), None)
        if bad is None:
            assert got == verify_thm3(traj, [f.psi_cents for f in frames],
                                      M, T), trial
        else:
            assert got == BoundReport(
                FAIL, lemmas[bad].slack, {"rep": 2, "t0": bad * T},
                {"check": "frame_lemma", "window": T}), trial
            failed += 1
            assert forged, trial
    assert failed >= 10, failed


def test_verifiers_build_no_solver(monkeypatch):
    # slot_optimality, its brute-force oracle and thm3's frame lemma score
    # through scaled_terms alone: with SlotSolver unbuildable, every report
    # is the one they gave with it.
    rng = random.Random(22)
    cases = []
    for trial in range(60):
        traj = _lemma_book(rng)
        if trial % 2:
            _forge_in_caps(rng, traj)
        cfg = SimpleNamespace(verify=("slot_optimality", "thm3"),
                              window=rng.randint(1, 4), seed=trial,
                              options={"optimality_slots": 8})
        cases.append((cfg, traj, cli._deterministic_checks(
            cfg, traj.spec, traj.params, traj, 0)))

    def refuse(self, *args, **kwargs):
        raise AssertionError("a verifier built a SlotSolver")

    monkeypatch.setattr(SlotSolver, "__init__", refuse)
    verdicts = set()
    for cfg, traj, expected in cases:
        got = cli._deterministic_checks(cfg, traj.spec, traj.params, traj, 0)
        assert got == expected
        verdicts.update((name, r.verdict) for name, r in got.items())
    assert verdicts == {(name, v) for name in cfg.verify
                        for v in (PASS, FAIL)}, verdicts


# -- forged books through `lyaptrade verify` ---------------------------------

TRACE = [(100, 200), (200, 100), (50, 150), (300, 50), (100, 100),
         (250, 200), (50, 50), (300, 200)]


def _verify(tmp_path, V, edit, checks):
    """`lyaptrade verify` of `checks` on the book of an 8-slot, 2-stock
    trace run (mu_max 1 each, a $3.00 money budget, window 4) after
    `edit` sets cells {(slot, column): value}; queues are rebuilt so the
    recursion holds.  Returns (exit code, reports)."""
    trace = tmp_path / "trace.csv"
    trace.write_text("slot,p_1,p_2\n" + "".join(
        f"{t},{a / 100:.2f},{b / 100:.2f}\n" for t, (a, b) in enumerate(TRACE)))
    doc = {"market": {"stocks": [{"mu_max": 1, "p_max": "3.00"},
                                 {"mu_max": 1, "p_max": "2.00"}],
                      "budget": {"mode": "money", "value": "3.00"}},
           "trader": {"V": V}, "source": {"kind": "trace", "path": str(trace)},
           "horizon": 8, "seed": 1, "write_trajectories": True,
           "verify": ["dynamics"],
           "options": {"window": 4, "optimality_slots": 200}}
    run = tmp_path / "run.json"
    run.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(run), "--out", str(out)]) == 0
    book = out / "trajectory_0.csv"
    lines = book.read_text().splitlines()
    q = [1, 1]  # slot,p_1,p_2,A_1,A_2,mu_1,mu_2,Q_1,Q_2,profit
    for t in range(8):
        cols = lines[t + 1].split(",")
        for (slot, col), value in edit.items():
            if slot == t:
                cols[col] = str(value)
        for n in range(2):
            q[n] = max(q[n] - int(cols[5 + n]) + int(cols[3 + n]), 0)
            cols[7 + n] = str(q[n])
        lines[t + 1] = ",".join(cols)
    book.write_text("\n".join(lines) + "\n")
    doc["verify"] = checks
    cfg = tmp_path / "verify.json"
    cfg.write_text(json.dumps(doc))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", "--config", str(cfg),
                         "--trajectory", str(book)])
    return code, json.loads(buf.getvalue())["reports"]


def test_over_cap_book_fails_thm3_and_slot_optimality(tmp_path):
    # Slot 6 buys 2 shares of stock 0, whose mu_max is 1.
    over = {(6, 3): 2}
    rule = {"rule": "buy_limit", "slot": 6, "stock": 0}
    code, reports = _verify(tmp_path, "5", over,
                            ["dynamics", "queue_band", "frame_drift", "thm3"])
    assert code == 2
    assert [r["verdict"] for r in reports.values()] \
        == ["pass", "pass", "pass", "fail"]
    assert reports["thm3"]["locus"] == {"rep": 0, "t0": 4}
    assert reports["thm3"]["detail"] == {"check": "frame_lemma", **rule,
                                         "window": 4}
    code, reports = _verify(tmp_path, "5", over,
                            ["dynamics", "slot_optimality"])
    assert code == 2
    assert reports["slot_optimality"] == {
        "verdict": "fail", "slack": -1.0, "locus": 6,
        "detail": {"check": "slot_optimality", **rule}}


def test_in_cap_book_breaking_the_lemma_fails_thm3_at_its_frame(tmp_path):
    checks = ["dynamics", "queue_band", "frame_drift", "thm3"]
    code, reports = _verify(tmp_path, "50", {}, checks)
    assert code == 0, reports
    # Slot 6 sells stock 0 at $0.50 instead of buying it, far below its
    # target: within every cap, but no drift-plus-penalty minimum.
    code, reports = _verify(tmp_path, "50", {(6, 3): 0, (6, 5): 1}, checks)
    assert code == 2
    assert [r["verdict"] for r in reports.values()] \
        == ["pass", "pass", "pass", "fail"]
    assert reports["thm3"]["locus"] == {"rep": 0, "t0": 4}
    assert reports["thm3"]["detail"] == {"check": "frame_lemma", "window": 4}
    assert reports["thm3"]["slack"] < 0
