"""Seeded inputs for the three benchmark workloads.

Each workload is one `lyaptrade run` config.  The market, trader and
source structure are fixed per workload so that every seed exercises the
same layers with the same weight; the seed changes the sampled price
paths (passed through `--seed`) and, for `trace_lookahead`, the order of
the frames in the trace CSV.  Configs and traces are written into one directory per workload
and reference each other by a relative path, so the config echo inside
`content_hash` is identical wherever the checkout lives.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

TRACE_FILE = "trace.csv"
CONFIG_FILE = "config.json"
TRACE_POOL_SEED = 20090
WINDOW = 4  # frame length of frame_drift, thm2 and thm3


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int          # --jobs of the timed commands
    horizon: int
    replications: int
    tiny_horizon: int  # sizes used by the self-test
    tiny_replications: int


# Why each workload exists is recorded in BENCHMARK.json.  One command
# takes about 3 s on a 2-core box, so a run holds about ten of them and
# one slowed by another tenant does not set the figure.  thm2 needs at
# least 30 replications, so markov keeps 40 (and 30 in the self-test).
WORKLOADS = {w.name: w for w in (
    Workload("iid_verify", 1, 20_000, 2, 40, 2),
    Workload("markov_ensemble", 2, 20_000, 40, 40, 30),
    Workload("trace_lookahead", 1, 400, 1, 40, 1),
)}


def _iid_config(seed: int, horizon: int, reps: int) -> dict:
    fixed = {"kind": "fixed", "fee": "0.05"}
    linear = {"kind": "linear", "rate": "0.02"}
    return {
        "market": {
            "stocks": [
                {"mu_max": 2, "p_max": "3.00", "buy_cost": fixed,
                 "sell_cost": linear},
                {"mu_max": 2, "p_max": "2.50", "buy_cost": linear,
                 "sell_cost": fixed},
                {"mu_max": 2, "p_max": "4.00", "buy_cost": fixed,
                 "sell_cost": fixed},
            ],
            "budget": {"mode": "money", "value": "6.00"},
        },
        "trader": {"V": "50"},
        "source": {"kind": "iid",
                   "support": [["1.00", "2.50", "1.50"],
                               ["3.00", "0.50", "2.00"],
                               ["2.00", "1.00", "4.00"],
                               ["1.50", "2.00", "0.50"],
                               ["2.50", "1.50", "3.00"],
                               ["0.50", "0.75", "2.50"]],
                   "probs": ["1/6"] * 6},
        "horizon": horizon,
        "seed": seed,
        "replications": reps,
        "verify": ["dynamics", "queue_band", "slot_optimality",
                   "frame_drift"],
        "options": {"optimality_slots": 100, "window": WINDOW},
    }


def _markov_config(seed: int, horizon: int, reps: int) -> dict:
    return {
        "market": {
            "stocks": [
                {"mu_max": 3, "p_max": "3.00",
                 "buy_cost": {"kind": "fixed", "fee": "0.10"},
                 "sell_cost": {"kind": "linear", "rate": "0.01"}},
                {"mu_max": 3, "p_max": "2.00",
                 "buy_cost": {"kind": "linear", "rate": "0.02"}},
            ],
            "budget": {"mode": "money", "value": "4.00"},
        },
        "trader": {"V": "20"},
        "source": {"kind": "markov",
                   "states": [["1.00", "2.00"], ["2.00", "1.00"],
                              ["3.00", "1.50"], ["1.50", "0.50"]],
                   "transition": [[0.4, 0.3, 0.2, 0.1],
                                  [0.2, 0.4, 0.1, 0.3],
                                  [0.3, 0.1, 0.4, 0.2],
                                  [0.1, 0.2, 0.3, 0.4]]},
        "horizon": horizon,
        "seed": seed,
        "replications": reps,
        "verify": ["thm2"],
        "options": {"window": WINDOW},
    }


def _trace_config(seed: int, horizon: int, reps: int) -> dict:
    return {
        "market": {
            "stocks": [{"mu_max": 1, "p_max": "2.00"},
                       {"mu_max": 1, "p_max": "2.00"}],
            "budget": {"mode": "none"},
        },
        "trader": {"V": "50"},
        "source": {"kind": "trace", "path": TRACE_FILE,
                   "cap_policy": "reject"},
        "horizon": horizon,
        "seed": seed,
        "replications": reps,
        "verify": ["dynamics", "queue_band", "thm3"],
        "options": {"window": WINDOW},
    }


def _write_trace(path: Path, seed: int, rows: int, n_stocks: int = 2):
    """Frames of WINDOW slots drawn once from a fixed stream, in an order
    the seed shuffles.  The thm3 lookahead cost of a frame depends only on
    its prices, so every seed asks for the same lookahead work while the
    trace, the trajectory and the hash still differ per seed."""
    pool = random.Random(TRACE_POOL_SEED)
    frames = [[[pool.randint(0, 200) for _ in range(n_stocks)]
               for _ in range(WINDOW)] for _ in range(rows // WINDOW)]
    random.Random(seed).shuffle(frames)
    lines = ["slot," + ",".join(f"p_{i + 1}" for i in range(n_stocks))]
    for t, cents in enumerate(row for frame in frames for row in frame):
        lines.append(f"{t}," + ",".join(f"{c // 100}.{c % 100:02d}"
                                        for c in cents))
    path.write_text("\n".join(lines) + "\n")


_CONFIGS = {"iid_verify": _iid_config, "markov_ensemble": _markov_config,
            "trace_lookahead": _trace_config}


def write_inputs(name: str, seed: int, dest: Path, tiny: bool = False) -> Path:
    """Write the config (and trace) of workload `name` for `seed` into
    `dest`; returns the config path.  `tiny` shrinks the horizon and the
    replication count for the self-test."""
    w = WORKLOADS[name]
    horizon = w.tiny_horizon if tiny else w.horizon
    reps = w.tiny_replications if tiny else w.replications
    dest.mkdir(parents=True, exist_ok=True)
    config = _CONFIGS[name](seed, horizon, reps)
    if config["source"]["kind"] == "trace":
        _write_trace(dest / TRACE_FILE, seed, horizon)
    path = dest / CONFIG_FILE
    path.write_text(json.dumps(config, indent=2) + "\n")
    return path
