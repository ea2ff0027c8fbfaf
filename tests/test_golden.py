"""Pinned outputs.  The sha256 of Trajectory.to_csv for small fixed runs
of every buy solver: a change to the slot kernel, the solvers or the
price sources that moves any decision, queue or profit changes a hash
here.  The sha256 of the frame lookahead's (psi, decisions) over a
fixed-seed corpus, which pins its tie-break among optimal sequences.
The sha256 of the price-only LP's rebalanced policy and the exact
memory epsilon, which pin the simplex's choice among alternative optima.
And the content_hash of a small `lyaptrade run` with the deterministic
trajectory verifiers, which pins their verdicts, slacks and loci."""

import hashlib
import io
import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from lyaptrade import (BudgetMode, CostFunction, MarketSpec,
                       MarkovPriceModel, PriceDistribution, PriceTrace,
                       StockSpec, TraderParams, lookahead_psi, run_backtest)
from lyaptrade.analysis import measure_memory_epsilon
from lyaptrade.cli import main
from lyaptrade.oracles import drift_rebalance, solve_phi_opt
from lyaptrade.prices import stationary_distribution

from conftest import random_dist, random_small_spec, random_trace

FIXED = CostFunction("fixed", fee=5)
LINEAR = CostFunction("linear", rate=2)
TABLE = CostFunction("table", values=(0, 3, 9, 12))


def _iid(n_stocks, p_max, n_points=5, seed=1):
    r = random.Random(seed)
    support = tuple(tuple(r.randrange(0, p_max + 1) for _ in range(n_stocks))
                    for _ in range(n_points))
    return PriceDistribution(support, (Fraction(1, n_points),) * n_points)


def _markov(n_stocks, p_max, seed=2):
    r = random.Random(seed)
    states = tuple(tuple(r.randrange(0, p_max + 1) for _ in range(n_stocks))
                   for _ in range(3))
    return MarkovPriceModel(states, ((0.5, 0.25, 0.25), (0.2, 0.6, 0.2),
                                     (0.25, 0.25, 0.5)))


def _trace(n_stocks, p_max, length, seed=3):
    r = random.Random(seed)
    return PriceTrace(tuple(tuple(r.randrange(0, p_max + 1)
                                  for _ in range(n_stocks))
                            for _ in range(length)))


def _spec(costs, budget, mu_max=2, p_max=300):
    return MarketSpec(tuple(StockSpec(i, mu_max, p_max, buy, sell)
                            for i, (buy, sell) in enumerate(costs)), budget)


PLACEHOLDER_SPEC = _spec([(FIXED, CostFunction())],
                         BudgetMode("money", money=400), mu_max=3)


# name: (spec, params, source, horizon, seed)
CASES = {
    "exact_money_iid": (
        _spec([(FIXED, LINEAR), (LINEAR, FIXED), (FIXED, FIXED)],
              BudgetMode("money", money=500)),
        TraderParams(V=20), _iid(3, 300), 400, 3),
    "exact_none_markov": (
        _spec([(LINEAR, LINEAR), (CostFunction(), FIXED)], BudgetMode()),
        TraderParams(V=10), _markov(2, 300), 400, 4),
    "exact_placeholder_trace": (
        PLACEHOLDER_SPEC, TraderParams(V=8, placeholder=True),
        _trace(1, 300, 300), 300, 0),
    "greedy_money_trace": (
        _spec([(LINEAR, CostFunction()), (FIXED, LINEAR)],
              BudgetMode("money", money=350)),
        TraderParams(V=15, buy_solver="greedy"), _trace(2, 300, 300), 300, 0),
    "share_budget_linear_iid": (
        _spec([(LINEAR, FIXED), (CostFunction(), LINEAR),
               (LINEAR, CostFunction())], BudgetMode("shares", shares=3)),
        TraderParams(V=12), _iid(3, 300), 400, 5),
    "share_budget_table_markov": (
        _spec([(TABLE, CostFunction()), (FIXED, LINEAR)],
              BudgetMode("shares", shares=4), mu_max=3),
        TraderParams(V=25), _markov(2, 300), 400, 6),
}

GOLDEN = {
    "exact_money_iid":
        "3a42266cee04931b66d1900e580c93549a9bd72bb637117567bd137e0a274f49",
    "exact_none_markov":
        "4d23de1fd2db1b73f60758d255ebdb0dba5c55058df22e5e3bc4ed708b0977d7",
    "exact_placeholder_trace":
        "c03754fa2502149473650965660f9b135cdcdd2f810b4cfb8ae6519b7d10db63",
    "greedy_money_trace":
        "27d4780dea56022fa172f54f5eaffe7ae557478cb6d4a4bee07bba4c9e68d8d0",
    "share_budget_linear_iid":
        "6f3635f641e5cc8e572724d19a62bf93cc25e3307b69c19fed8f0f213fa5d710",
    "share_budget_table_markov":
        "20a776622c29439e231476c68f6ca0ba3356460f6c17915afe2681dfd4f0ffe5",
}


def csv_sha256(name) -> str:
    spec, params, source, horizon, seed = CASES[name]
    buf = io.StringIO()
    run_backtest(spec, params, source, horizon, seed=seed).to_csv(buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_trajectory_csv_is_pinned(name):
    assert csv_sha256(name) == GOLDEN[name]


# The hash was taken with the depth-first search that the lookahead DP
# replaced; 3-stock frames stop at T=3 because that search exceeded its
# 10^8-node cap on some 3-stock, T=4 frames of this corpus.
MAX_T = {1: 4, 2: 4, 3: 3}
LOOKAHEAD_GOLDEN = \
    "028a6a5a1098b25b0ba38e880eef0bc747176443a1827603f669e17c46918cbc"


def lookahead_frames(n=240, seed=2024):
    """Random frames of 1-3 stocks with mu <= 2, cycling through the
    none, money and share budgets, T from 1 to MAX_T[n_stocks]."""
    rng = random.Random(seed)
    for k in range(n):
        spec = random_small_spec(rng, max_stocks=3, max_mu=2,
                                 with_budget=False)
        mode = ("none", "money", "shares")[k % 3]
        if mode == "money":
            spec = replace(spec, budget=BudgetMode(
                "money", money=rng.randrange(100, 1500)))
        elif mode == "shares":
            spec = replace(spec, budget=BudgetMode(
                "shares", shares=rng.randint(1, 3)))
        T = rng.randint(1, MAX_T[spec.n_stocks])
        yield spec, list(random_trace(rng, spec, T).sequence)


def test_lookahead_tie_break_is_pinned():
    digest = hashlib.sha256()
    for spec, window in lookahead_frames():
        res = lookahead_psi(spec, window)
        digest.update(repr((res.psi_cents, tuple(
            (d.buys, d.sells) for d in res.decisions))).encode())
    assert digest.hexdigest() == LOOKAHEAD_GOLDEN


RUN_CONFIG = {
    "market": {"stocks": [{"mu_max": 2, "p_max": "3.00",
                           "buy_cost": {"kind": "fixed", "fee": "0.05"}},
                          {"mu_max": 1, "p_max": "2.00",
                           "sell_cost": {"kind": "linear", "rate": "0.02"}}],
               "budget": {"mode": "money", "value": "4.00"}},
    "trader": {"V": "7/3"},
    "source": {"kind": "iid",
               "support": [["1.00", "2.00"], ["3.00", "0.50"],
                           ["2.00", "1.00"]],
               "probs": ["1/3", "1/2", "1/6"]},
    "horizon": 301,
    "seed": 11,
    "replications": 2,
    "verify": ["dynamics", "queue_band", "slot_optimality", "frame_drift"],
    "options": {"window": 3, "optimality_slots": 20},
}
RUN_GOLDEN = \
    "d02390cd46e658a4369455bf4b14a1b79dd1db728e2ce7e027417f13a2cb56ab"


def test_run_content_hash_is_pinned(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(RUN_CONFIG))
    assert main(["run", "--config", str(path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert {r["verdict"] for r in summary["reports"].values()} == {"pass"}
    assert summary["content_hash"] == RUN_GOLDEN


# The price-only LP and its rebalanced policy: the sha256 of the policy
# table (with phi_opt and the drifts) and the exact memory epsilon over a
# window of 4, taken with the rational-tableau simplex.  The LP has
# alternative optima here, so a different pivot order would move them.
MARKOV_ENSEMBLE = (
    MarketSpec((StockSpec(0, 3, 300, CostFunction("fixed", fee=10),
                          CostFunction("linear", rate=1)),
                StockSpec(1, 3, 200, LINEAR, CostFunction())),
               BudgetMode("money", money=400)),
    MarkovPriceModel(((100, 200), (200, 100), (300, 150), (150, 50)),
                     ((0.4, 0.3, 0.2, 0.1), (0.2, 0.4, 0.1, 0.3),
                      (0.3, 0.1, 0.4, 0.2), (0.1, 0.2, 0.3, 0.4))))
PHI_OPT_GOLDEN = [
    ("c4231fbe7e05cc94a42c43cf0c9f705778cfe90ce874cead995524afeb74a031",
     "876621/1000000"),
    ("bcb78e4abe00d99c1f22997571dc8f542e2cd7ec02c42a6af42a44f9c61dc055",
     "72873289127/4388693400000"),
    ("9751a39b4f5a217ba5cfab16b1541ffa1c5905e0db3f9633eeb0027169e2f55d",
     "193245405543/1639792000000"),
    ("ae3188149868d05c13ad3627d628b3112d6fc0ade31c0973d57e21b3e338a38f",
     "1963/12960"),
    ("fd91674b0ce199efc30bab0c68463bbe9ee615c14b14230aef5868cdb90c3f2b",
     "23418052353/200874520000"),
    ("77f9cb4acf9dea3e56264251e1300d2dd5dfcbb25a7cf81cd25ce728f407e59b",
     "1782081/1280000"),
]


def phi_opt_markets(n=5, seed=3):
    """The two-stock, mu 3 chain of the Markov ensemble benchmark, then
    AC-8-style random markets of 1-2 stocks on random 2-3 state chains."""
    yield MARKOV_ENSEMBLE
    rng = random.Random(seed)
    for _ in range(n):
        spec = random_small_spec(rng, max_stocks=2, max_mu=2)
        k = rng.randint(2, 3)
        states = random_dist(rng, spec, n_points=k).support
        rows = []
        for _ in range(k):
            w = [rng.randint(1, 5) for _ in range(k)]
            rows.append(tuple(Fraction(v, sum(w)) for v in w))
        yield spec, MarkovPriceModel(states, tuple(rows))


def test_phi_opt_policy_and_epsilon_are_pinned():
    got = []
    for spec, model in phi_opt_markets():
        sol = drift_rebalance(solve_phi_opt(spec,
                                            stationary_distribution(model)))
        table = tuple((price, tuple((d.buys, d.sells, str(q))
                                    for d, q in acts))
                      for price, acts in sol.policy.table)
        digest = hashlib.sha256(repr((str(sol.phi_opt),
                                      tuple(map(str, sol.drifts)),
                                      table)).encode()).hexdigest()
        got.append((digest, str(measure_memory_epsilon(model, sol, 4))))
    assert got == PHI_OPT_GOLDEN
