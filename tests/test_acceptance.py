"""End-to-end acceptance gate: one test and one printed verdict line per
guarantee the library makes.  Instances are generated from fixed seeds so
every run checks the identical corpus."""

import random
import time
from fractions import Fraction

from lyaptrade import (MarkovPriceModel, TraderParams, drift_rebalance,
                       enumerate_actions, lookahead_psi, run_backtest,
                       run_profit, solve_phi_opt)
from lyaptrade.analysis import (VACUOUS, measure_memory_epsilon,
                                verify_queue_band, verify_slot_optimality,
                                verify_thm1_profit, verify_thm2_profit,
                                verify_thm3, verify_tslot_lemma)
from lyaptrade.oracles import brute_force_slot_min
from lyaptrade.prices import stationary_distribution
from lyaptrade.trader import SlotSolver, scaled_terms

from conftest import (adversarial_trace, buy_coeffs, one_stock_spec,
                      random_dist, random_small_spec,
                      random_trace, uniform_two_price)
from reference_helpers import real_queue_at, replace, startup_cost
from test_oracles import deterministic_phi_opt


def report(tag, ok, extra=""):
    print(f"{tag}: {'pass' if ok else 'FAIL'}{(' ' + extra) if extra else ''}")
    assert ok, tag


def random_markov2(rng, spec):
    """Irreducible 2-state price chain within the market's caps."""
    rows = set()
    while len(rows) < 2:
        rows.add(tuple(rng.randrange(0, s.p_max + 1) for s in spec.stocks))
    a, b = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
    return MarkovPriceModel(tuple(rows),
                            ((Fraction(round(a * 100), 100),
                              Fraction(100 - round(a * 100), 100)),
                             (Fraction(100 - round(b * 100), 100),
                              Fraction(round(b * 100), 100))))


def band_corpus(horizon):
    """200 specs x {iid, markov, adversarial trace}, shared by the band and
    place-holder criteria so both see the same runs."""
    rng = random.Random(0xAC01)
    for i in range(200):
        spec = random_small_spec(rng, max_stocks=3, max_mu=3)
        params = TraderParams(V=(5, 50, 500)[i % 3])
        sources = (random_dist(rng, spec), random_markov2(rng, spec),
                   adversarial_trace(spec, horizon))
        for j, source in enumerate(sources):
            yield spec, params, source, 3 * i + j


def test_ac1_queue_band_deterministic():
    horizon = 10 ** 4
    start = time.monotonic()
    for spec, params, source, seed in band_corpus(horizon):
        traj = run_backtest(spec, params, source, horizon, seed=seed)
        rep = verify_queue_band(traj)
        assert rep.ok, (rep.to_json(), seed)
    elapsed = time.monotonic() - start
    report("AC-1 queue band on 600 runs x 1e4 slots",
           elapsed < 60, f"({elapsed:.1f}s)")


def test_ac2_iid_profit_bound():
    start = time.monotonic()
    spec = one_stock_spec()          # 1 stock, caps $2, no costs
    dist = uniform_two_price()       # {$1, $2} uniform
    phi = solve_phi_opt(spec, dist).phi_opt
    assert phi == Fraction(1, 2) == deterministic_phi_opt(spec, dist)
    params = TraderParams(V=50, initial_queue=(1,))
    horizon = 10 ** 5
    totals = [run_profit(spec, params, dist, horizon, seed=2, stream=r)[0]
              for r in range(100)]
    rep = verify_thm1_profit(totals, horizon, spec, params, phi)
    elapsed = time.monotonic() - start
    ok = rep.ok and rep.detail["bound"] > 0.488 and elapsed < 120
    report("AC-2 i.i.d. two-price profit floor", ok,
           f"(mean {rep.detail['mean']:.5f} >= bound {rep.detail['bound']:.5f}"
           f" - 3sigma, {elapsed:.1f}s)")


def test_ac3_per_slot_optimality():
    rng = random.Random(0xAC03)
    horizon = 10 ** 3
    for _ in range(50):
        spec = random_small_spec(rng, max_stocks=2, max_mu=2)
        params = TraderParams(V=rng.choice((1, 5, 50)))
        traj = run_backtest(spec, params, random_dist(rng, spec, 3),
                            horizon, seed=rng.randrange(2 ** 32))
        terms = scaled_terms(spec, params)
        # the objective depends on (prices, queue) only, so checking each
        # distinct pair covers every slot exactly
        seen = set()
        alternatives = []
        for t in range(horizon):
            key = (traj.prices[t], traj.queue_at(t))
            if key in seen:
                continue
            seen.add(key)
            aset = enumerate_actions(spec, traj.prices[t], traj.queue_at(t))
            alternatives.extend((t, d) for d in aset.actions)
            oracle = brute_force_slot_min(params, spec, *key)
            ours = terms.scaled_objective(*key, traj.sells[t], traj.buys[t])
            best = terms.scaled_objective(*key, oracle.sells, oracle.buys)
            assert ours == best
        assert verify_slot_optimality(traj, alternatives).ok
    report("AC-3 per-slot minimality, 50 instances x 1e3 slots", True)


def test_ac4_lookahead_profit_bound():
    rng = random.Random(0xAC04)
    T, M = 4, 25
    for _ in range(20):
        spec = random_small_spec(rng, max_stocks=1, max_mu=2,
                                 with_budget=False)
        trace = random_trace(rng, spec, M * T)
        psi = [lookahead_psi(spec, list(trace.sequence[k * T:(k + 1) * T]))
               .psi_cents for k in range(M)]
        for V in (10, 100):
            traj = run_backtest(spec, TraderParams(V=V), trace, M * T)
            rep = verify_thm3(traj, psi, T)
            assert rep.ok, rep.to_json()
    report("AC-4 frame-lookahead bound, 20 traces x V in {10,100}", True)


def test_ac5_windowed_drift_inequality():
    rng = random.Random(0xAC05)
    checked = 0
    for _ in range(100):
        spec = random_small_spec(rng, max_stocks=2, max_mu=2)
        params = TraderParams(V=rng.choice((1, 5, 50)))
        trace = random_trace(rng, spec, 24)
        traj = run_backtest(spec, params, trace, len(trace))
        for _ in range(10):
            T = rng.randint(1, 4)
            t0 = rng.randrange(0, traj.n_slots - T + 1)
            window = traj.prices[t0:t0 + T]
            if rng.random() < 0.5:
                alts = list(lookahead_psi(spec, window).decisions)
            else:
                alts = [rng.choice(enumerate_actions(spec, p).actions)
                        for p in window]
            assert verify_tslot_lemma(traj, alts, t0, T).ok
            checked += 1
    report(f"AC-5 sample-path frame inequality, {checked} tuples", True)


def test_ac6_greedy_dominance_and_overshoot():
    rng = random.Random(0xAC06)
    done = 0
    while done < 10 ** 3:
        spec = random_small_spec(rng)
        if any(not s.buy_cost.is_concave(s.mu_max) for s in spec.stocks) \
                or spec.budget.mode == "shares":
            continue
        if spec.budget.mode == "money" and any(
                s.buy_cost.kind not in ("zero", "linear")
                for s in spec.stocks):
            continue  # dominance is only promised on this domain
        prices = tuple(rng.randrange(0, s.p_max + 1) for s in spec.stocks)
        queue = tuple(rng.randrange(0, 8) for _ in spec.stocks)
        params = TraderParams(V=rng.choice((1, 5, 50)))
        solver = SlotSolver(spec, params)
        greedy = SlotSolver(spec, replace(params, buy_solver="greedy"))
        a_exact = solver.buy(prices, queue)
        a_greedy = greedy.buy(prices, queue)
        coeffs = buy_coeffs(solver, prices, queue)

        def obj(buys):
            return sum(w * a for w, a in zip(coeffs, buys)) \
                + solver.terms.k * sum(s.buy_cost(a)
                                       for s, a in zip(spec.stocks, buys))

        assert obj(a_greedy) <= obj(a_exact)
        if spec.budget.mode == "money":
            spent = sum(a * p for a, p in zip(a_greedy, prices))
            assert spent <= spec.budget.money + max(s.p_max
                                                    for s in spec.stocks)
        done += 1
    report("AC-6 greedy relaxation dominance, 1e3 instances", True)


def test_ac7_placeholder_equivalence():
    horizon = 10 ** 4
    for spec, params, source, seed in band_corpus(horizon):
        wrapped = replace(params, initial_queue=(0,) * spec.n_stocks,
                          placeholder=True)
        traj = run_backtest(spec, wrapped, source, horizon, seed=seed)
        for t in range(traj.n_slots):
            real = real_queue_at(traj, t)
            assert all(r >= 0 for r in real)
            assert all(m <= r for m, r in zip(traj.sells[t], real))
        plain_total, _ = run_profit(spec, params, source, horizon, seed=seed)
        avoided = startup_cost(spec, traj.prices[0])
        assert traj.cumulative_profit() == (plain_total - avoided) + avoided
    report("AC-7 place-holder shares on every band run", True)


def test_ac8_price_only_optimum_oracle():
    rng = random.Random(0xAC08)
    for _ in range(20):
        spec = random_small_spec(rng, max_stocks=1, max_mu=2,
                                 with_budget=False)
        dist = random_dist(rng, spec, n_points=rng.randint(2, 3))
        sol = solve_phi_opt(spec, dist)
        oracle = deterministic_phi_opt(spec, dist)
        assert abs(sol.phi_opt - oracle) <= Fraction(1, 10 ** 9)
        balanced = drift_rebalance(sol)
        assert all(d == 0 for d in balanced.drifts)
        assert balanced.phi_opt == sol.phi_opt
    report("AC-8 price-only optimum vs vertex mixing, 20 instances", True)


def test_ac9_markov_profit_bound():
    spec = one_stock_spec()
    model = MarkovPriceModel(((100,), (200,)),
                             ((Fraction(51, 100), Fraction(49, 100)),
                              (Fraction(49, 100), Fraction(51, 100))))
    sol = drift_rebalance(solve_phi_opt(spec, stationary_distribution(model)))
    T, M = 16, 200
    eps = measure_memory_epsilon(model, sol, T)
    horizon = M * T
    rep = None
    for V in (500, 1000, 2000, 5000, 10000):
        params = TraderParams(V=V, initial_queue=(1,))
        totals = [run_profit(spec, params, model, horizon, seed=9, stream=r)[0]
                  for r in range(100)]
        rep = verify_thm2_profit(totals, M, T, eps, spec, params, sol.phi_opt)
        if rep.verdict != VACUOUS:
            break
        assert rep.ok  # vacuous bounds must still classify as passing
    ok = rep is not None and rep.verdict != VACUOUS and rep.ok
    report("AC-9 decaying-memory profit floor", ok,
           f"(V={params.V}, eps={float(eps):.2e}, mean {rep.detail['mean']:.4f} >= "
           f"bound {rep.detail['bound']:.4f} - 3sigma)")
