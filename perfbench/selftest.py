#!/usr/bin/env python3
"""Fast self-test of the benchmark (about ten seconds on 2 cores).

    python3 perfbench/selftest.py        # or: python3 -m pytest perfbench/selftest.py

Runs every workload at a tiny horizon through the real CLI and checks
that a correct result passes, that a tampered summary (one verdict
flipped, or the hash changed) makes the failed share 1, that the traced
run reproduces the untraced content_hash, that a vanished wrap point
reads as missing rather than zero, and that BENCHMARK.json names exactly
the workloads and metrics the benchmark produces.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

TINY = run.WORK / "selftest"
SEED = 3


def _tiny_inputs(name):
    work = TINY / name
    shutil.rmtree(work, ignore_errors=True)
    config = write_inputs(name, SEED, work, tiny=True)
    return config, json.loads(config.read_text())["verify"]


def _failed_frac(commands, expected):
    return run.failed_count(commands, expected) / len(commands)


def _flip_one_verdict(c):
    summary = copy.deepcopy(c.summary)
    report = next(iter(summary["reports"].values()))
    report["verdict"] = "fail" if report["verdict"] != "fail" else "pass"
    return replace(c, summary=summary)


def _change_hash(c):
    summary = copy.deepcopy(c.summary)
    summary["content_hash"] = "0" * len(summary["content_hash"])
    return replace(c, summary=summary)


def test_results_are_checked():
    for name, w in WORKLOADS.items():
        config, checks = _tiny_inputs(name)
        out = config.parent / "out"
        ref = run.run_cli(config, SEED, 1, out)
        expected = run.expected_from(ref, checks)
        assert expected is not None, (name, ref.code, ref.summary)
        timed = run.run_cli(config, SEED, w.jobs, out)
        assert _failed_frac([timed], expected) == 0, name
        assert _failed_frac([_flip_one_verdict(timed)], expected) == 1, name
        assert _failed_frac([_change_hash(timed)], expected) == 1, name
        assert _failed_frac([replace(timed, code=2)], expected) == 1, name
        # A reference that is itself wrong fails every command.
        assert run.expected_from(_flip_one_verdict(ref), checks) is None


def test_traced_run_reproduces_hash():
    cli = run.import_cli()
    for name in WORKLOADS:
        config, checks = _tiny_inputs(name)
        out = config.parent / "out"
        expected = run.expected_from(run.run_cli(config, SEED, 1, out), checks)
        tracer = tracing.Tracer()
        here = os.getcwd()
        os.chdir(config.parent)
        try:
            with tracer.installed():
                code = cli.main(["run", "--config", config.name, "--seed",
                                 str(SEED), "--out", str(out), "--jobs", "1"])
        finally:
            os.chdir(here)
        summary = run.read_summary(out / "summary.json")
        assert run.is_correct(run.Command(code, 0, 0, 0, summary), expected)
        assert not tracer.missing, tracer.missing
        metrics = tracing.layer_metrics(tracer)
        assert None not in metrics.values()
        stats = tracer.stats()
        assert all(0 <= stats.self_ns[n] <= stats.total_ns[n]
                   for n in stats.calls)
        assert metrics["trader.slots"] > 0 and metrics["cli.run_self_s"] > 0
    # The wrappers are gone again.
    assert not hasattr(cli.cmd_run, "__wrapped__")


def test_missing_wrap_point_is_not_zero():
    run.import_cli()
    renamed = tuple(
        (span, module, cls, "renamed_" + attr if span == "trader.sell"
         else attr, counters)
        for span, module, cls, attr, counters in tracing.WRAPS)
    tracer = tracing.Tracer(renamed)
    with tracer.installed():
        pass
    metrics = tracing.layer_metrics(tracer)
    assert tracer.missing == {"trader.sell"}
    for name in ("trader.sell_s", "trader.solver_calls",
                 "trader.memo_hit_ratio"):
        assert metrics[name] is None, name
    assert metrics["trader.buy_s"] == 0


def test_benchmark_json_matches():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] \
        == [(n, u) for n, u, _, _ in tracing.PER_LAYER] + [run.TRACE_OVERHEAD]


if __name__ == "__main__":
    for test in (test_benchmark_json_matches,
                 test_missing_wrap_point_is_not_zero,
                 test_results_are_checked, test_traced_run_reproduces_hash):
        test()
        print(f"ok {test.__name__}")
