"""What a command loads: numpy, the process pool and the rational simplex
only when it uses them, and never `dataclasses` or `inspect`.

Each case runs in a fresh interpreter, since this one has long since
imported all three.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lyaptrade

SRC = str(Path(lyaptrade.__file__).resolve().parent.parent)

MARKET = {"stocks": [{"mu_max": 1, "p_max": "2.00"},
                     {"mu_max": 1, "p_max": "3.00"}],
          "budget": {"mode": "none"}}
ROWS = ["0,1.00,3.00", "1,2.00,1.50", "2,0.50,2.00", "3,1.50,0.00",
        "4,2.00,2.50", "5,1.00,1.00", "6,0.00,3.00", "7,1.00,0.50"]


def loaded_after(tmp_path, body: str, blas=None) -> dict:
    """Run `body` in a fresh interpreter, with OPENBLAS_NUM_THREADS set
    to `blas` or unset; report which of numpy, the process pool, the
    simplex, `dataclasses` and `inspect` it left in sys.modules, and what
    it stored in `out`."""
    script = "\n".join([
        "import json, sys",
        "out = {}",
        body,
        "out['numpy'] = 'numpy' in sys.modules",
        "out['pool'] = 'concurrent.futures.process' in sys.modules",
        "out['simplex'] = 'lyaptrade.simplex' in sys.modules",
        "out['dataclasses'] = 'dataclasses' in sys.modules",
        "out['inspect'] = 'inspect' in sys.modules",
        "print(json.dumps(out))",
    ])
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas is not None:
        env["OPENBLAS_NUM_THREADS"] = blas
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def trace_config(tmp_path, **extra) -> str:
    (tmp_path / "trace.csv").write_text("slot,p_1,p_2\n" + "\n".join(ROWS)
                                        + "\n")
    doc = {"market": MARKET, "trader": {"V": "50"},
           "source": {"kind": "trace", "path": "trace.csv"},
           "horizon": len(ROWS), "seed": 1, **extra}
    (tmp_path / "config.json").write_text(json.dumps(doc))
    return "config.json"


def cli_main(*argv) -> str:
    return ("from lyaptrade.cli import main\n"
            f"out['code'] = main({list(argv)!r})")


def test_import_loads_neither(tmp_path):
    out = loaded_after(tmp_path, "import lyaptrade.cli")
    assert (out["numpy"], out["pool"], out["simplex"]) == (False,) * 3
    # The records build their methods without generating code.
    assert (out["dataclasses"], out["inspect"]) == (False, False)


def test_trace_run_at_one_job_loads_neither(tmp_path):
    config = trace_config(tmp_path, options={"window": 4},
                          verify=["dynamics", "queue_band", "thm3"])
    out = loaded_after(tmp_path, cli_main("run", "--config", config,
                                          "--out", "out"))
    assert out["code"] == 0
    assert (out["numpy"], out["pool"], out["simplex"]) == (False,) * 3
    assert (out["dataclasses"], out["inspect"]) == (False, False)


def test_lookahead_oracle_loads_neither(tmp_path):
    config = trace_config(tmp_path, oracle={"mode": "lookahead"},
                          options={"window": 4})
    out = loaded_after(tmp_path, cli_main("oracle", "--config", config,
                                          "--out", "out"))
    assert out["code"] == 0
    assert (out["numpy"], out["pool"], out["simplex"]) == (False,) * 3


def test_trace_convert_loads_no_numpy(tmp_path):
    config = trace_config(tmp_path)
    out = loaded_after(tmp_path, cli_main("trace-convert", "--config",
                                          config, "--out", "out"))
    assert out["code"] == 0
    assert out["numpy"] is False


def iid_config(tmp_path) -> str:
    doc = {"market": MARKET, "trader": {"V": "50"},
           "source": {"kind": "iid", "support": [["1.00", "3.00"],
                                                 ["2.00", "0.50"]],
                      "probs": [0.5, 0.5]},
           "horizon": 50, "replications": 2, "seed": 1}
    (tmp_path / "config.json").write_text(json.dumps(doc))
    return "config.json"


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")],
                         ids=["default", "user-value"])
def test_cli_runs_numpy_without_a_blas_thread(tmp_path, preset, expected):
    body = cli_main("run", "--config", iid_config(tmp_path), "--out", "out") \
        + ("\nimport os\n"
           "out['blas'] = os.environ.get('OPENBLAS_NUM_THREADS')\n"
           "task = '/proc/self/task'\n"
           "out['threads'] = len(os.listdir(task)) "
           "if os.path.isdir(task) else None\n")
    out = loaded_after(tmp_path, body, blas=preset)
    assert out["code"] == 0 and out["numpy"] is True
    assert out["simplex"] is False
    assert out["blas"] == expected
    if preset is None and sys.platform.startswith("linux"):
        assert out["threads"] == 1


def test_phi_opt_oracle_loads_the_simplex(tmp_path):
    # Only thm1, thm2 and the phi_opt oracle solve an LP.
    out = loaded_after(tmp_path, cli_main("oracle", "--config",
                                          iid_config(tmp_path), "--out",
                                          "out"))
    assert (out["code"], out["simplex"]) == (0, True)


def test_random_source_loads_numpy_before_the_pool(tmp_path):
    iid_config(tmp_path)
    record = (
        "import concurrent.futures as cf\n"
        "Pool = cf.ProcessPoolExecutor\n"
        "class Recorder(Pool):\n"
        "    def __init__(self, *args, **kwargs):\n"
        "        out.setdefault('numpy_at_pool', []).append(\n"
        "            'numpy' in sys.modules)\n"
        "        super().__init__(*args, **kwargs)\n"
        "cf.ProcessPoolExecutor = Recorder\n")
    out = loaded_after(tmp_path, record + cli_main(
        "run", "--config", "config.json", "--jobs", "2", "--out", "out"))
    assert out["code"] == 0
    assert out["numpy_at_pool"] == [True]


def test_public_names_are_pinned():
    # A name added to or dropped from the package surface shows here.
    assert sorted(lyaptrade.__all__) == [
        "BoundConstants", "BoundReport", "BudgetMode", "CapacityError",
        "ConfigError", "CostFunction", "ExperimentConfig", "Feasibility",
        "LookaheadResult", "LyaptradeError", "MarketSpec", "MarkovPriceModel",
        "NumericalError", "ParseError", "PonlyPolicy", "PonlySolution",
        "PriceDistribution", "PriceTrace", "SlotSolver",
        "StatisticalPowerError", "StockSpec", "StructuralError",
        "TradeDecision", "TraderParams", "Trajectory", "analysis",
        "brute_force_slot_min", "cents_to_str", "cents_to_units",
        "compute_constants", "compute_theta", "config", "config_from_json",
        "config_to_json", "drift_rebalance", "enumerate_actions", "errors",
        "load_config", "load_trace", "lookahead_psi", "lyapunov", "make_rng",
        "market", "measure_memory_epsilon", "money", "oracles", "prices",
        "queue_band", "run_backtest", "run_profit",
        "save_trace", "scaled_windows_run", "slot_profit",
        "solve_phi_opt", "stationary_distribution",
        "to_cents", "trader", "validate_decision", "verify_queue_band",
        "verify_slot_optimality", "verify_thm1_profit", "verify_thm2_profit",
        "verify_thm3", "verify_tslot_lemma"]
