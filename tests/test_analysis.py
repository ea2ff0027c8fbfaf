"""Bound constants, Lyapunov quantities, and the verifiers."""

import math
import pickle
from fractions import Fraction
from types import SimpleNamespace

import pytest

from lyaptrade import (MarkovPriceModel, PriceTrace, TradeDecision,
                       TraderParams, compute_constants, lookahead_psi,
                       lyapunov, measure_memory_epsilon, run_backtest,
                       run_profit, solve_phi_opt, stationary_distribution,
                       verify_queue_band, verify_slot_optimality,
                       verify_thm1_profit, verify_thm2_profit, verify_thm3,
                       verify_tslot_lemma)
from lyaptrade import cli
from lyaptrade.analysis import FAIL, PASS, VACUOUS, check_frame_drift
from lyaptrade.config import DETERMINISTIC_CHECKS
from lyaptrade.errors import StatisticalPowerError, StructuralError

from conftest import (adversarial_trace, one_stock_spec, random_small_spec,
                      random_trace, uniform_two_price)
from reference_helpers import (check_one_slot_drift, check_shifted_slot,
                             sample_path_drift)


def two_stock_spec():
    from lyaptrade import MarketSpec, StockSpec
    return MarketSpec((StockSpec(0, 2, 100), StockSpec(1, 3, 100)))


class TestConstants:
    def test_quadratic_sum(self):
        consts = compute_constants(two_stock_spec(), 1)
        assert consts.B == Fraction(13, 2)  # (4 + 9) / 2

    def test_window_constant(self):
        consts = compute_constants(one_stock_spec(), 2)
        assert consts.D == Fraction(17, 8)  # 3/2 + 1/8 + 1/2

    def test_zero_epsilon_collapses(self):
        consts = compute_constants(one_stock_spec(mu_max=2), 3, 0)
        assert consts.C1 == consts.D

    def test_price_cap_sum(self):
        consts = compute_constants(two_stock_spec(), 1)
        assert consts.C2 == 3  # 1 + 1 + 1

    def test_all_nonnegative(self):
        consts = compute_constants(two_stock_spec(), 5, Fraction(1, 100))
        for v in (consts.B, consts.B_tilde, consts.D, consts.C1, consts.C2):
            assert v >= 0
        assert consts.B <= Fraction(13, 2)

    def test_bad_window(self):
        with pytest.raises(StructuralError):
            compute_constants(one_stock_spec(), 0)


class TestLyapunov:
    def test_at_target(self):
        assert lyapunov((5, 7), (5, 7)) == 0

    def test_single_gap(self):
        assert lyapunov((8,), (5,)) == Fraction(9, 2)

    def test_additive(self):
        assert lyapunov((8, 1), (5, 3)) == lyapunov((8,), (5,)) \
            + lyapunov((1,), (3,))

    def test_dimension_mismatch(self):
        with pytest.raises(StructuralError):
            lyapunov((1, 2), (1,))


class TestDrift:
    def _traj(self):
        return run_backtest(one_stock_spec(), TraderParams(V=20),
                            uniform_two_price(), 50, seed=3)

    def test_static_queue_is_zero(self):
        # at Q = theta - V*p both objectives are exactly zero: no trades
        trace = PriceTrace(((200,),) * 10)
        traj = run_backtest(one_stock_spec(),
                            TraderParams(V=20, initial_queue=(2,)), trace, 10)
        assert traj.queues[-1] == (2,)
        assert sample_path_drift(traj, 0, 10) == 0

    def test_window_must_be_positive(self):
        with pytest.raises(StructuralError):
            sample_path_drift(self._traj(), 0, 0)

    def test_telescopes(self):
        traj = self._traj()
        total = sum(sample_path_drift(traj, t, 1) for t in range(20))
        assert total == sample_path_drift(traj, 0, 20)

    def test_out_of_range(self):
        with pytest.raises(StructuralError):
            sample_path_drift(self._traj(), 45, 10)


class TestQueueBand:
    def test_conforming_run_passes(self):
        traj = run_backtest(one_stock_spec(), TraderParams(V=50),
                            uniform_two_price(), 3000, seed=1)
        report = verify_queue_band(traj)
        assert report.verdict == PASS and report.detail["conforming"]

    def test_adversarial_trace_passes(self):
        spec = two_stock_spec()
        traj = run_backtest(spec, TraderParams(V=50),
                            adversarial_trace(spec, 2000), 2000)
        assert verify_queue_band(traj).verdict == PASS

    def test_corruption_caught_with_locus(self):
        traj = run_backtest(one_stock_spec(), TraderParams(V=50),
                            uniform_two_price(), 100, seed=1)
        traj.queues[40] = (0,)  # below the band floor
        report = verify_queue_band(traj)
        assert report.verdict == FAIL and report.locus == (40, 0)

    def test_forbidden_sale_caught(self):
        traj = run_backtest(one_stock_spec(), TraderParams(V=50),
                            uniform_two_price(), 100, seed=1)
        traj.sells[0] = (1,)  # initial queue sits below the sell threshold
        assert verify_queue_band(traj).verdict == FAIL


class TestSlotOptimality:
    def test_reflexive_zero_slack(self):
        traj = run_backtest(one_stock_spec(), TraderParams(V=20),
                            uniform_two_price(), 50, seed=2)
        alts = [(t, TradeDecision(traj.buys[t], traj.sells[t]))
                for t in range(traj.n_slots)]
        report = verify_slot_optimality(traj, alts)
        assert report.verdict == PASS and report.slack == 0

    def test_zero_alternative(self):
        traj = run_backtest(one_stock_spec(), TraderParams(V=20),
                            uniform_two_price(), 50, seed=2)
        alts = [(t, TradeDecision.zero(1)) for t in range(traj.n_slots)]
        assert verify_slot_optimality(traj, alts).verdict == PASS

    def test_infeasible_alternative_rejected(self):
        traj = run_backtest(one_stock_spec(), TraderParams(V=20),
                            uniform_two_price(), 10, seed=2)
        with pytest.raises(StructuralError):
            verify_slot_optimality(traj, [(0, TradeDecision((9,), (0,)))])

    def test_suboptimal_emission_caught(self):
        traj = run_backtest(one_stock_spec(), TraderParams(V=20),
                            uniform_two_price(), 50, seed=2)
        # corrupt one emitted decision, then offer the true optimum
        t = next(i for i in range(50) if traj.buys[i] == (1,))
        good = TradeDecision(traj.buys[t], traj.sells[t])
        traj.buys[t] = (0,)
        assert verify_slot_optimality(traj, [(t, good)]).verdict == FAIL


class TestTslotLemma:
    def _traj(self, seed=5):
        return run_backtest(one_stock_spec(), TraderParams(V=20),
                            uniform_two_price(), 64, seed=seed)

    def test_zero_sequence(self):
        traj = self._traj()
        alts = [TradeDecision.zero(1)] * 4
        assert verify_tslot_lemma(traj, alts, 8, 4).verdict == PASS

    def test_lookahead_sequence(self):
        traj = self._traj()
        res = lookahead_psi(traj.spec, traj.prices[8:12])
        report = verify_tslot_lemma(traj, list(res.decisions), 8, 4)
        assert report.verdict == PASS

    def test_random_sequences(self, rng):
        from lyaptrade import enumerate_actions
        traj = self._traj()
        for _ in range(50):
            t0 = rng.randrange(0, 60)
            T = rng.randint(1, 4)
            if t0 + T > traj.n_slots:
                continue
            alts = [rng.choice(enumerate_actions(
                traj.spec, traj.prices[t0 + k]).actions) for k in range(T)]
            assert verify_tslot_lemma(traj, alts, t0, T).verdict == PASS


class TestThm3:
    def test_deterministic_bound(self, rng):
        spec = one_stock_spec()
        trace = random_trace(rng, spec, 100)
        for V in (10, 100):
            traj = run_backtest(spec, TraderParams(V=V), trace, 100)
            psi = [lookahead_psi(spec, trace.sequence[m * 4:(m + 1) * 4]).psi_cents
                   for m in range(25)]
            assert verify_thm3(traj, psi, 4).verdict == PASS

    def test_degenerate_frame(self):
        spec = one_stock_spec()
        traj = run_backtest(spec, TraderParams(V=10), uniform_two_price(),
                            1, seed=1)
        psi = [lookahead_psi(spec, traj.prices[:1]).psi_cents]
        assert verify_thm3(traj, psi, 1).verdict == PASS

    def test_v_sweep_trend(self, rng):
        # the lookahead penalty D*T/V tightens as V grows; the initial-queue
        # term grows with V (theta scales with V), so only the penalty
        # component is monotone.  All sweeps must still pass.
        spec = one_stock_spec()
        trace = random_trace(rng, spec, 100)
        psi = [lookahead_psi(spec, trace.sequence[m * 4:(m + 1) * 4]).psi_cents
               for m in range(25)]
        D = compute_constants(spec, 4).D
        penalties = []
        for V in (10, 50, 250):
            traj = run_backtest(spec, TraderParams(V=V), trace, 100)
            assert verify_thm3(traj, psi, 4).verdict == PASS
            penalties.append(D * 4 / V)
        assert penalties[0] > penalties[1] > penalties[2]


class TestStatisticalVerifiers:
    def _ensemble(self, spec, params, horizon, n=30):
        return [run_profit(spec, params, uniform_two_price(), horizon,
                           seed=77, stream=r)[0] for r in range(n)]

    def test_too_few_replications(self):
        spec = one_stock_spec()
        with pytest.raises(StatisticalPowerError):
            verify_thm1_profit([0] * 10, 100, spec, TraderParams(V=50),
                               Fraction(1, 2))

    def test_iid_bound_clears(self):
        spec = one_stock_spec()
        params = TraderParams(V=50)
        totals = self._ensemble(spec, params, 20000)
        report = verify_thm1_profit(totals, 20000, spec, params,
                                    Fraction(1, 2))
        assert report.ok

    def test_bound_gap_halves_when_v_doubles(self):
        B = compute_constants(one_stock_spec(), 1).B
        assert B / 100 == (B / 50) / 2

    def test_vacuous_classification(self):
        spec = one_stock_spec()
        params = TraderParams(V=Fraction(1, 100))
        totals = self._ensemble(spec, params, 200)
        report = verify_thm1_profit(totals, 200, spec, params, Fraction(1, 2))
        assert report.verdict == VACUOUS

    def test_degenerate_chain_matches_iid_form(self):
        # 1-state chain with epsilon=0, T=1 reduces to the i.i.d. bound
        spec = one_stock_spec()
        params = TraderParams(V=50)
        totals = self._ensemble(spec, params, 20000)
        iid = verify_thm1_profit(totals, 20000, spec, params, Fraction(1, 2))
        markov = verify_thm2_profit(totals, 20000, 1, 0, spec, params,
                                    Fraction(1, 2))
        c = compute_constants(spec, 1, 0)
        # with T=1, eps=0: C1*T/V - B/V = (D - B)/V is the only bound gap
        assert markov.detail["bound"] == pytest.approx(
            iid.detail["bound"] - float((c.C1 - c.B) / 50) - float(c.C2) * 0)


class TestBoundReport:
    def test_pass_reports_print_alike_after_a_pickle_round_trip(self):
        # A report that comes back from a worker process holds a float
        # inf that is not math.inf; it must print as it did in the worker.
        spec, params = one_stock_spec(), TraderParams(V=50)
        traj = run_backtest(spec, params, uniform_two_price(), 64, seed=3)
        cfg = SimpleNamespace(verify=DETERMINISTIC_CHECKS, window=4, seed=1,
                              options={"optimality_slots": 0})
        reports = list(cli._deterministic_checks(cfg, spec, params, traj,
                                                 0).values())
        totals = [run_profit(spec, params, uniform_two_price(), 2000, seed=5,
                             stream=r)[0] for r in range(30)]
        reports += [
            verify_slot_optimality(traj, [(5, TradeDecision.zero(1))]),
            verify_tslot_lemma(traj, [TradeDecision.zero(1)] * 4, 0, 4),
            verify_thm1_profit(totals, 2000, spec, params, Fraction(1, 2)),
            verify_thm2_profit(totals, 500, 4, 0, spec, params,
                               Fraction(1, 2))]
        assert len(reports) == len(DETERMINISTIC_CHECKS) + 4
        for report in reports:
            assert report.verdict == PASS, report
            again = pickle.loads(pickle.dumps(report))
            assert again.to_json() == report.to_json(), report
        assert sum(r.slack == math.inf for r in reports) == 2


class TestDriftInequalities:
    def _traj(self, rng):
        spec = random_small_spec(rng, max_stocks=2, max_mu=2)
        return run_backtest(spec, TraderParams(V=rng.choice((5, 50))),
                            random_trace(rng, spec, 40), 40)

    def test_one_slot(self, rng):
        for _ in range(5):
            traj = self._traj(rng)
            assert all(check_one_slot_drift(traj, t) for t in range(40))

    def test_frames(self, rng):
        for _ in range(5):
            traj = self._traj(rng)
            for T in (1, 2, 5):
                assert check_frame_drift(traj, T) is None

    @staticmethod
    def _frame_drift_reference(traj, window):
        """The T-slot lemma in Fractions, one frame at a time: the start
        of the first frame that fails, or None."""
        theta = traj.params.resolved_theta(traj.spec)
        B_tilde = compute_constants(traj.spec, window).B_tilde
        for t0 in range(0, traj.n_slots - window + 1, window):
            rhs = B_tilde * window * window
            q0 = traj.queue_at(t0)
            for i in range(traj.spec.n_stocks):
                net = sum(traj.sells[t][i] - traj.buys[t][i]
                          for t in range(t0, t0 + window))
                rhs -= (Fraction(q0[i]) - theta[i]) * net
            if sample_path_drift(traj, t0, window) > rhs:
                return t0
        return None

    @staticmethod
    def _oversize_trades(rng, traj):
        """Trades past mu_max at a few slots; the queues are rebuilt so
        they still follow Q <- max(Q - mu + A, 0)."""
        for _ in range(rng.randint(1, 3)):
            t = rng.randrange(traj.n_slots)
            i = rng.randrange(traj.spec.n_stocks)
            side = traj.buys if rng.random() < 0.5 else traj.sells
            row = list(side[t])
            row[i] = rng.randint(1, 4) * traj.spec.stocks[i].mu_max + 1
            side[t] = tuple(row)
        q = traj.initial_queue
        for t in range(traj.n_slots):
            q = tuple(max(v - m + a, 0)
                      for v, m, a in zip(q, traj.sells[t], traj.buys[t]))
            traj.queues[t] = q
        traj.check_dynamics()

    def test_frames_match_fraction_reference(self, rng):
        failed = 0
        for k in range(40):
            spec = random_small_spec(rng, max_stocks=3, max_mu=2)
            theta = None if k % 4 < 2 else tuple(
                Fraction(rng.randrange(1, 900), rng.randint(1, 7))
                for _ in spec.stocks)
            V = rng.choice((5, 50, Fraction(35, 3)))
            traj = run_backtest(spec, TraderParams(V=V, theta=theta),
                                random_trace(rng, spec, 40), 40)
            if k % 2:
                self._oversize_trades(rng, traj)
            for T in (1, 2, 3, 5, 40):
                t0 = check_frame_drift(traj, T)
                assert t0 == self._frame_drift_reference(traj, T), (k, T)
                failed += t0 is not None
        assert failed > 0
        with pytest.raises(StructuralError):
            check_frame_drift(traj, 0)

    def test_shifted_slots(self, rng):
        from lyaptrade import enumerate_actions
        for _ in range(5):
            traj = self._traj(rng)
            for _ in range(20):
                t0, tau = rng.randrange(40), rng.randrange(40)
                alt = rng.choice(enumerate_actions(
                    traj.spec, traj.prices[tau]).actions)
                assert check_shifted_slot(traj, t0, tau, alt)


class TestMemoryEpsilon:
    def test_iid_chain_has_zero_epsilon(self):
        model = MarkovPriceModel(((100,), (200,)),
                                 ((0.5, 0.5), (0.5, 0.5)))
        sol = solve_phi_opt(one_stock_spec(), stationary_distribution(model))
        assert measure_memory_epsilon(model, sol, 4) < 1e-12

    def test_iid_chain_epsilon_is_exactly_zero(self):
        model = MarkovPriceModel(((100,), (200,), (150,)),
                                 (("1/3",) * 3,) * 3)
        sol = solve_phi_opt(one_stock_spec(), stationary_distribution(model))
        eps = measure_memory_epsilon(model, sol, 4)
        assert isinstance(eps, Fraction) and eps == 0

    def test_epsilon_decays_with_window(self):
        model = MarkovPriceModel(((100,), (200,)),
                                 ((0.8, 0.2), (0.2, 0.8)))
        sol = solve_phi_opt(one_stock_spec(), stationary_distribution(model))
        eps = [measure_memory_epsilon(model, sol, T) for T in (1, 4, 16)]
        assert eps[0] > eps[1] > eps[2] >= 0
