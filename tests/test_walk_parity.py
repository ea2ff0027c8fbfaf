"""Parity of the flat walk table and the per-draw Markov sampler with
the code they replaced.

The reference copies below are verbatim: `reference_state_sequence`
draws each Markov state with a Python `bisect_right`, and
`reference_slots` solves each slot through a joint `(queue, prices)`
dict memo over a list of price tuples.  Both are compared with the live
code on seeded random markets and sources, and the sampler also on
chosen draws that sit on and just below every CDF entry.
"""

import random
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate

import numpy as np

from lyaptrade import (MarkovPriceModel, PriceDistribution, PriceTrace,
                       TraderParams, Trajectory, run_backtest, run_profit)
from lyaptrade.errors import StructuralError
from lyaptrade.prices import make_rng, markov_state_sequence, \
    sample_iid_indices
from lyaptrade.trader import SlotSolver, queue_band

from test_slot_parity import CASES, COST_KINDS, _market, _params


def reference_state_sequence(model, start, horizon, rng) -> list:
    """States visited over a horizon, starting from (and including) start."""
    if not 0 <= start < model.n_states:
        raise StructuralError(f"unknown state id {start}")
    # Float CDFs summed left to right, as np.cumsum does, so a draw maps
    # to the same state as an np.searchsorted lookup would.
    cdfs = [list(accumulate(float(x) for x in row))
            for row in model.transition]
    last = model.n_states - 1
    out = []
    state = start
    for u in rng.random(horizon).tolist():
        out.append(state)
        state = min(bisect_right(cdfs[state], u), last)
    return out


def reference_price_sequence(spec, source, horizon, seed, stream):
    if horizon < 1:
        raise StructuralError("horizon must be at least 1")
    if isinstance(source, PriceTrace):
        if len(source) < horizon:
            raise StructuralError(
                f"trace has {len(source)} slots, horizon is {horizon}")
        source.check_against(spec, horizon)
        return list(source.sequence[:horizon])
    rng = make_rng(seed, stream)
    if isinstance(source, PriceDistribution):
        source.check_against(spec)
        idxs = sample_iid_indices(source, horizon, rng)
        support = source.support
        return [support[i] for i in idxs]
    if isinstance(source, MarkovPriceModel):
        source.check_against(spec)
        states = reference_state_sequence(source, 0, horizon, rng)
        emit = source.states
        return [emit[s] for s in states]
    raise StructuralError(f"unknown price source {type(source).__name__}")


def reference_slots(spec, params, solver, source, horizon, seed, stream):
    """Yield (prices, (sells, buys, profit, next queue)) for every slot,
    each distinct (queue, prices) pair solved once per solver (a fresh
    one when solver is None); a trace's slots are solved with no memo."""
    seq = reference_price_sequence(spec, source, horizon, seed, stream)
    if solver is None:
        solver = SlotSolver(spec, params)
    elif solver.spec != spec or solver.params != params:
        raise StructuralError("solver was built for a different market "
                              "or trader parameters")
    step = solver.step
    memo = None if isinstance(source, PriceTrace) else solver.memo
    q = params.resolved_initial_queue(spec)
    for p in seq:
        if memo is None:
            hit = step(p, q)
        else:
            key = (q, p)
            hit = memo.get(key)
            if hit is None:
                hit = memo[key] = step(p, q)
        yield p, hit
        q = hit[3]


def reference_backtest(spec, params, source, horizon, seed=0, stream=0, *,
                       solver=None) -> Trajectory:
    traj = Trajectory(spec, params, params.resolved_initial_queue(spec))
    ap, ab, as_, aq, apr = (traj.prices.append, traj.buys.append,
                            traj.sells.append, traj.queues.append,
                            traj.profits.append)
    for p, (sells, buys, profit, nq) in reference_slots(
            spec, params, solver, source, horizon, seed, stream):
        ap(p); ab(buys); as_(sells); aq(nq); apr(profit)
    return traj


def reference_profit(spec, params, source, horizon, seed=0, stream=0, *,
                     solver=None):
    total = 0
    for _, (_, _, profit, q) in reference_slots(spec, params, solver, source,
                                                horizon, seed, stream):
        total += profit
    return total, q


class Draws:
    """A stand-in generator whose `random(n)` returns the first n of a
    fixed list of draws, cycled."""

    def __init__(self, values):
        self.values = values

    def random(self, n):
        reps = -(-n // len(self.values))
        return np.array((self.values * reps)[:n])


def edge_draws(model) -> list:
    """0.0, the largest draw below 1.0, and every float CDF entry of the
    chain with its two neighbours."""
    out = {0.0, float(np.nextafter(1.0, 0.0))}
    for row in model.transition:
        for c in accumulate(float(x) for x in row):
            if c < 1.0:
                out.update((float(np.nextafter(c, 0.0)), c,
                            float(np.nextafter(c, 1.0))))
    return sorted(out)


def random_chain(rng, k, states) -> MarkovPriceModel:
    """A k-state chain over the given price vectors, irreducible through
    half of each row's mass on the next state.  A row is in Fractions, or
    in decimal floats such as (0.7, 0.2, 0.1), whose float CDF may end
    below 1.0."""
    rows = []
    for i in range(k):
        units = [0] * k
        for _ in range(10):
            units[rng.randrange(k)] += 1
        units[(i + 1) % k] += 10
        if rng.random() < 0.5:
            rows.append(tuple(u / 20 for u in units))
        else:
            rows.append(tuple(Fraction(u, 20) for u in units))
    return MarkovPriceModel(states, tuple(rows))


def test_markov_sampler_matches_bisect_reference():
    rng = random.Random(1987)
    below_one = 0
    chains = [
        MarkovPriceModel(((100,), (200,), (300,)),
                         ((0.7, 0.2, 0.1), (0.1, 0.2, 0.7),
                          (0.6, 0.3, 0.1))),
        MarkovPriceModel(tuple((100 * s,) for s in range(7)),
                         tuple(tuple(Fraction(1, 7) for _ in range(7))
                               for _ in range(7))),
        MarkovPriceModel(((100,),), ((1,),)),
        # Enough states that a linear scan of a row would be slow.
        MarkovPriceModel(tuple((s,) for s in range(300)),
                         tuple(tuple(Fraction(int(j in (i, (i + 1) % 300)),
                                              2) for j in range(300))
                               for i in range(300))),
    ]
    for k in (2, 3, 4, 5):
        chains.append(random_chain(rng, k, tuple((100 * s,)
                                                 for s in range(k))))
    for model in chains:
        k = model.n_states
        ends = [list(accumulate(float(x) for x in row))[-1]
                for row in model.transition]
        below_one += sum(e < 1.0 for e in ends)
        edges = edge_draws(model)
        for start in sorted({0, k // 2, k - 1}):
            for horizon in (1, 2, 3 * len(edges), 5000):
                chosen = edges[start % len(edges):] + edges
                assert markov_state_sequence(model, start, horizon,
                                             Draws(chosen)) \
                    == reference_state_sequence(model, start, horizon,
                                                Draws(chosen))
                assert markov_state_sequence(
                    model, start, horizon, make_rng(start, horizon)) \
                    == reference_state_sequence(
                        model, start, horizon, make_rng(start, horizon))
        # The largest draw below 1.0 reaches past a row whose float sum
        # ends below 1.0; the draw goes to the last state.
        top = float(np.nextafter(1.0, 0.0))
        for s, end in enumerate(ends):
            if end < 1.0:
                assert markov_state_sequence(model, s, 2, Draws([top])) \
                    == reference_state_sequence(model, s, 2, Draws([top])) \
                    == [s, k - 1]
    assert below_one >= 9, below_one


def many_state_chain(rng, k) -> MarkovPriceModel:
    """A k-state chain whose rows put 100 units on a random number of
    states, at least a tenth of them on the next state, so most rows of a
    large chain hold zeros.  A row is in Fractions or in decimal floats
    such as 0.07, whose float CDF may end below 1.0."""
    rows = []
    for i in range(k):
        units = [0] * k
        units[(i + 1) % k] = 10
        spread = rng.sample(range(k), rng.randint(1, k))
        for _ in range(90):
            units[rng.choice(spread)] += 1
        if rng.random() < 0.5:
            rows.append(tuple(u / 100 for u in units))
        else:
            rows.append(tuple(Fraction(u, 100) for u in units))
    return MarkovPriceModel(tuple((s,) for s in range(k)), tuple(rows))


def test_many_state_sampler_matches_bisect_reference():
    rng = random.Random(2718)
    below_one, zeros = {}, 0
    for k in (2, 16, 64):
        for _ in range(3):
            model = many_state_chain(rng, k)
            ends = [list(accumulate(float(x) for x in row))[-1]
                    for row in model.transition]
            below_one[k] = below_one.get(k, 0) + sum(e < 1.0 for e in ends)
            zeros += sum(0 in row for row in model.transition)
            edges = edge_draws(model)
            # One draw past the sampler's 2**16-draw block of floats, and
            # past the successor-list block of the sampler before it.
            for horizon in (1, 2 ** 16 // k + 1, 2 ** 16 + 7):
                start = rng.randrange(k)
                chosen = edges[rng.randrange(len(edges)):] + edges
                assert markov_state_sequence(model, start, horizon,
                                             Draws(chosen)) \
                    == reference_state_sequence(model, start, horizon,
                                                Draws(chosen))
                assert markov_state_sequence(
                    model, start, horizon, make_rng(k, horizon)) \
                    == reference_state_sequence(
                        model, start, horizon, make_rng(k, horizon))
    # Two float terms tend to sum to 1.0 exactly; many seldom do.
    assert below_one[16] >= 2 and below_one[64] >= 5 and zeros >= 100, \
        (below_one, zeros)


def duplicated_support(rng, spec, n):
    """n distinct price vectors, the first repeated at the end, so that
    one price vector has two support indices."""
    vecs = set()
    while len(vecs) < n:
        vecs.add(tuple(0 if rng.random() < 0.2
                       else rng.randrange(0, s.p_max + 1)
                       for s in spec.stocks))
    vecs = sorted(vecs)
    return tuple(vecs) + (vecs[0],)


def out_of_band_queue(rng, spec, params) -> tuple:
    return tuple(rng.choice((0, int(hi) + rng.randint(1, 5)))
                 for _, hi in queue_band(spec, params))


def test_runs_match_reference_memo():
    rng = random.Random(5150)
    seen = {"cases": set(), "costs": set(), "duplicate": 0,
            "out_band": 0, "sources": set()}
    for trial in range(40):
        solver_name, budget = CASES[trial % len(CASES)]
        kinds = [(rng.choice(COST_KINDS), rng.choice(COST_KINDS))
                 for _ in range(3)]
        spec = _market(rng, solver_name, budget, kinds)
        params = _params(rng, spec, solver_name, (1, 5, 20, Fraction(35, 3)))
        if trial % 3 == 0:
            params = TraderParams(V=params.V, theta=params.theta,
                                  buy_solver=solver_name,
                                  initial_queue=out_of_band_queue(
                                      rng, spec, params))
            seen["out_band"] += not params.initial_conforms(spec)
        support = duplicated_support(rng, spec, rng.randint(2, 3))
        weights = [rng.randint(1, 4) for _ in support]
        # The chain lists the vectors in reverse, so the two sources have
        # different supports and one solver serves both.
        sources = [
            (PriceDistribution(support, tuple(Fraction(w, sum(weights))
                                              for w in weights)), support),
            (random_chain(rng, len(support), support[::-1]), support[::-1]),
        ]
        live, ref = SlotSolver(spec, params), SlotSolver(spec, params)
        for source, vectors in sources:
            horizon = rng.choice((1, 50, 400))
            for stream in range(5):
                seed = 7 * trial
                got = run_backtest(spec, params, source, horizon, seed=seed,
                                   stream=stream, solver=live)
                want = reference_backtest(spec, params, source, horizon,
                                          seed=seed, stream=stream,
                                          solver=ref)
                assert (got.prices, got.buys, got.sells, got.queues,
                        got.profits) == (want.prices, want.buys, want.sells,
                                         want.queues, want.profits)
                fresh = run_backtest(spec, params, source, horizon,
                                     seed=seed, stream=stream)
                assert (fresh.prices, fresh.buys, fresh.sells, fresh.queues,
                        fresh.profits) == (want.prices, want.buys,
                                           want.sells, want.queues,
                                           want.profits)
                expected = reference_profit(spec, params, source, horizon,
                                            seed=seed, stream=stream,
                                            solver=ref)
                assert run_profit(spec, params, source, horizon, seed=seed,
                                  stream=stream, solver=live) == expected
                assert run_profit(spec, params, source, horizon, seed=seed,
                                  stream=stream) == expected
            # Both indices of the repeated price vector were solved.
            k = len(support)
            _, _, _, _, succ, _ = live.memo[vectors]
            seen["duplicate"] += max(succ[0::k]) >= 0 \
                and max(succ[k - 1::k]) >= 0
            seen["sources"].add(type(source).__name__)
        seen["cases"].add((solver_name, budget))
        seen["costs"].update(c for s in spec.stocks
                             for c in (s.buy_cost.kind, s.sell_cost.kind))
    assert seen["cases"] == set(CASES)
    assert seen["costs"] == set(COST_KINDS)
    assert seen["sources"] == {"PriceDistribution", "MarkovPriceModel"}
    assert seen["duplicate"] >= 40 and seen["out_band"] >= 10, seen
