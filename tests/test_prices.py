"""Price sources: i.i.d. sampling, Markov chains, trace replay."""

import io
from fractions import Fraction

import numpy as np
import pytest

from lyaptrade import (MarkovPriceModel, PriceDistribution, PriceTrace,
                       load_trace, make_rng, save_trace,
                       stationary_distribution)
from lyaptrade.errors import ConfigError, ParseError, StructuralError
from lyaptrade.prices import markov_state_sequence, sample_iid_indices

from conftest import one_stock_spec


class TestIid:
    def test_degenerate_support(self):
        dist = PriceDistribution(((150,),), (1,))
        assert sample_iid_indices(dist, 20, make_rng(1)) == [0] * 20

    def test_zero_mass_never_drawn(self):
        dist = PriceDistribution(((100,), (200,)), (1, 0))
        idxs = sample_iid_indices(dist, 5000, make_rng(2))
        assert set(idxs) == {0}

    def test_empirical_frequency(self):
        dist = PriceDistribution(((100,), (200,)),
                                 (Fraction(1, 2), Fraction(1, 2)))
        idxs = np.array(sample_iid_indices(dist, 10 ** 6, make_rng(3)))
        freq = float(np.mean(idxs == 0))
        assert abs(freq - 0.5) < 0.002  # binomial 3 sigma is ~0.0015

    def test_same_seed_same_sequence(self):
        dist = PriceDistribution(((100,), (200,)), (0.5, 0.5))
        a = sample_iid_indices(dist, 1000, make_rng(7, 1))
        b = sample_iid_indices(dist, 1000, make_rng(7, 1))
        c = sample_iid_indices(dist, 1000, make_rng(7, 2))
        assert a == b and a != c

    def test_normalization_and_validation(self):
        d = PriceDistribution(((100,), (200,)), (2, 2))
        assert d.probs == (Fraction(1, 2), Fraction(1, 2))
        with pytest.raises(ConfigError):
            PriceDistribution(((100,), (200,)), (1, -1))
        with pytest.raises(ConfigError):
            PriceDistribution((), ())

    def test_float_probabilities_read_as_decimals(self):
        # As MarkovPriceModel reads them: 0.1 is 1/10, not its binary value.
        dist = PriceDistribution(((100,), (200,)), (0.1, 0.9))
        assert dist.probs == (Fraction(1, 10), Fraction(9, 10))


class TestMarkov:
    def test_one_state_constant(self):
        model = MarkovPriceModel(((100,),), ((1.0,),))
        assert markov_state_sequence(model, 0, 20, make_rng(1)) == [0] * 20

    def test_unknown_state(self):
        model = MarkovPriceModel(((100,),), ((1.0,),))
        with pytest.raises(StructuralError):
            markov_state_sequence(model, 3, 20, make_rng(1))

    def test_reducible_rejected(self):
        with pytest.raises(ConfigError):
            MarkovPriceModel(((100,), (200,)),
                             ((1.0, 0.0), (0.0, 1.0)))

    def test_rows_must_be_stochastic(self):
        with pytest.raises(ConfigError):
            MarkovPriceModel(((100,), (200,)),
                             ((0.5, 0.4), (0.5, 0.5)))

    def test_symmetric_occupancy(self):
        model = MarkovPriceModel(((100,), (200,)),
                                 ((0.9, 0.1), (0.1, 0.9)))
        states = markov_state_sequence(model, 0, 10 ** 6, make_rng(5))
        occupancy = sum(states) / len(states)
        assert abs(occupancy - 0.5) < 0.005

    def test_state_sequence_matches_steps(self):
        model = MarkovPriceModel(((100,), (200,)),
                                 ((0.3, 0.7), (0.6, 0.4)))
        seq = markov_state_sequence(model, 0, 50, make_rng(9))
        assert seq[0] == 0
        assert all(s in (0, 1) for s in seq)

    @pytest.mark.parametrize("transition", [
        ((0.3, 0.7), (0.6, 0.4)),
        ((0.4, 0.3, 0.2, 0.1), (0.2, 0.4, 0.1, 0.3),
         (0.3, 0.1, 0.4, 0.2), (0.1, 0.2, 0.3, 0.4)),
        (("1/3", "1/3", "1/3"), (0, "1/7", "6/7"), ("1/2", "1/2", 0)),
        ((Fraction(51, 100), Fraction(49, 100)),
         (Fraction(49, 100), Fraction(51, 100))),
    ])
    def test_state_sequence_matches_searchsorted(self, transition):
        # Reference: one np.searchsorted per slot over np.cumsum rows; the
        # sampler must pick the same state for every draw.
        k = len(transition)
        model = MarkovPriceModel(tuple((100 * (s + 1),) for s in range(k)),
                                 transition)
        rows = [np.cumsum([float(x) for x in row])
                for row in model.transition]
        for seed in range(5):
            rng = make_rng(seed, 3)
            state, expected = seed % k, []
            for u in rng.random(2000):
                expected.append(state)
                state = min(int(np.searchsorted(rows[state], u,
                                                side="right")), k - 1)
            assert markov_state_sequence(model, seed % k, 2000,
                                         make_rng(seed, 3)) == expected

    def test_rows_sum_to_exactly_one(self):
        with pytest.raises(ConfigError, match="sums to 9999999999999999/"):
            MarkovPriceModel(((100,), (200,), (300,)),
                             ((0.3333333333333333,) * 3,) * 3)


class TestStationary:
    def test_symmetric(self):
        model = MarkovPriceModel(((100,), (200,)),
                                 ((0.9, 0.1), (0.1, 0.9)))
        dist = stationary_distribution(model)
        assert [float(p) for p in dist.probs] == pytest.approx([0.5, 0.5],
                                                               abs=1e-10)

    def test_asymmetric(self):
        # stay probabilities 0.9 and 0.8 give occupancy (2/3, 1/3)
        model = MarkovPriceModel(((100,), (200,)),
                                 ((0.9, 0.1), (0.2, 0.8)))
        dist = stationary_distribution(model)
        probs = {dist.support[i]: float(p) for i, p in enumerate(dist.probs)}
        assert probs[(100,)] == pytest.approx(2 / 3, abs=1e-9)
        assert probs[(200,)] == pytest.approx(1 / 3, abs=1e-9)

    def test_exact_rational(self):
        model = MarkovPriceModel(((100,), (200,)),
                                 ((Fraction(1, 3), Fraction(2, 3)),
                                  (Fraction(1, 2), Fraction(1, 2))))
        dist = stationary_distribution(model)
        assert dist.probs == (Fraction(3, 7), Fraction(4, 7))

    def test_one_state(self):
        dist = stationary_distribution(MarkovPriceModel(((100,),), ((1.0,),)))
        assert dist.probs == (Fraction(1),)

    def test_equal_price_states_merged(self):
        model = MarkovPriceModel(((100,), (100,), (200,)),
                                 ((0.0, 0.5, 0.5),
                                  (0.5, 0.0, 0.5),
                                  (0.5, 0.5, 0.0)))
        dist = stationary_distribution(model)
        assert len(dist.support) == 2
        probs = {dist.support[i]: float(p) for i, p in enumerate(dist.probs)}
        assert probs[(100,)] == pytest.approx(2 / 3, abs=1e-9)

    def test_residual_invariant(self):
        model = MarkovPriceModel(((100,), (200,), (300,)),
                                 ((0.2, 0.5, 0.3),
                                  (0.4, 0.1, 0.5),
                                  (0.25, 0.25, 0.5)))
        dist = stationary_distribution(model)
        pi = dist.float_probs()
        assert abs(pi.sum() - 1.0) < 1e-10
        # merged support here is 1:1 with states
        P = np.array(model.transition)
        assert np.max(np.abs(pi @ P - pi)) < 1e-9


TRACE = "slot,p_1\n0,1.00\n1,2.00\n2,0.50\n"


class TestTrace:
    def test_well_formed(self):
        trace, caps = load_trace(io.StringIO(TRACE), one_stock_spec())
        assert len(trace) == 3
        assert trace.sequence == ((100,), (200,), (50,))
        assert caps == (200,)

    def test_cap_violation_names_row(self):
        spec = one_stock_spec(p_max_cents=100)
        with pytest.raises(ParseError) as err:
            load_trace(io.StringIO(TRACE), spec)
        assert err.value.row == 2

    def test_auto_expand_returns_new_cap(self):
        spec = one_stock_spec(p_max_cents=100)
        trace, caps = load_trace(io.StringIO(TRACE), spec,
                                 cap_policy="auto_expand")
        assert len(trace) == 3 and caps == (200,)

    def test_malformed_rows(self):
        for body in ("slot,p_1\n0,abc\n",        # unparsable price
                     "slot,p_1\n0,-1.00\n",      # negative price
                     "slot,p_1\n0,1.00,2.00\n",  # extra column
                     "slot,p_1\n1,1.00\n",       # slot out of order
                     "slot,p_2\n0,1.00\n"):      # wrong header
            with pytest.raises(ParseError):
                load_trace(io.StringIO(body), one_stock_spec())

    def test_sub_cent_rejected(self):
        with pytest.raises(ParseError):
            load_trace(io.StringIO("slot,p_1\n0,1.005\n"), one_stock_spec())

    def test_round_trip(self):
        trace, _ = load_trace(io.StringIO(TRACE), one_stock_spec())
        out = io.StringIO()
        save_trace(trace, out)
        assert out.getvalue() == TRACE
        again, _ = load_trace(io.StringIO(out.getvalue()), one_stock_spec())
        assert again.sequence == trace.sequence

    def test_ragged_rejected(self):
        with pytest.raises(ConfigError):
            PriceTrace(((100,), (100, 200)))
