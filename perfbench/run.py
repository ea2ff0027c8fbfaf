#!/usr/bin/env python3
"""Benchmark of `lyaptrade run` on three seeded workloads.

    python3 perfbench/run.py --workload iid_verify --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/`.  Each run writes the workload's inputs from the seed.  Every
command must reproduce the content_hash and the passing verdicts of a
`--jobs 1` reference command for that seed: the first timed command when
the workload runs at --jobs 1, else an extra untimed one.  Then:

- `--trace 0`: times untraced CLI subprocesses for `--seconds` and
  reports the end-to-end metrics over the commands, plus `setup_s`, the
  median over several fresh interpreters that only load the config and
  resolve the source;
- `--trace 1`: runs the CLI in this process, untraced and then with every
  layer wrapped (see tracing.py), in pairs for `--seconds`, and reports
  the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The line before it records the
environment.  Results, spans and per-layer counters go to perfbench/_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
from workloads import WORKLOADS, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

CLI = "import sys; from lyaptrade.cli import main; sys.exit(main())"
SETUP_PROBE = ("import sys; from lyaptrade.cli import load_config; "
               "cfg = load_config(sys.argv[1]); cfg.source.resolve(cfg.market)")
SETUP_SAMPLES = 7
GOOD_VERDICTS = ("pass", "vacuous-pass")

END_TO_END = (("slots_per_s", "1/s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mib", "MiB"), ("ok_frac", "fraction"))
TRACE_OVERHEAD = ("trace_overhead_frac", "ratio")


@dataclass
class Command:
    """One finished CLI invocation and what it wrote."""

    code: int
    wall_s: float
    cpu_s: float       # user + sys of the process and its waited-for workers
    rss_mib: float     # largest resident set of any of those processes
    summary: dict | None


def spawn(argv, cwd: Path, log: Path) -> tuple:
    """Run argv to completion; returns (exit code, wall s, cpu s, rss MiB)."""
    with open(log, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd,
                                env=dict(os.environ, PYTHONPATH=str(SRC)),
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024)


def run_cli(config: Path, seed: int, jobs: int, out: Path) -> Command:
    summary_path = out / "summary.json"
    summary_path.unlink(missing_ok=True)
    argv = [sys.executable, "-c", CLI, "run", "--config", config.name,
            "--seed", str(seed), "--out", str(out), "--jobs", str(jobs)]
    code, wall, cpu, rss = spawn(argv, config.parent, out.parent / "cli.log")
    return Command(code, wall, cpu, rss, read_summary(summary_path))


def read_summary(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def verdicts(summary: dict) -> dict:
    return {name: rep.get("verdict")
            for name, rep in summary.get("reports", {}).items()}


def expected_from(ref: Command, checks) -> dict | None:
    """The reference's hash and verdicts, or None if the reference itself
    is wrong: non-zero exit, no hash, a check missing, or a verdict not
    passing."""
    if ref.code != 0 or not (ref.summary or {}).get("content_hash"):
        return None
    v = verdicts(ref.summary)
    if set(v) != set(checks) or any(x not in GOOD_VERDICTS
                                    for x in v.values()):
        return None
    return {"content_hash": ref.summary.get("content_hash"), "verdicts": v}


def is_correct(c: Command, expected: dict | None) -> bool:
    return (expected is not None and c.code == 0 and c.summary is not None
            and c.summary.get("content_hash") == expected["content_hash"]
            and verdicts(c.summary) == expected["verdicts"])


def failed_count(commands, expected) -> int:
    return sum(not is_correct(c, expected) for c in commands)


def environment() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "loadavg_start": os.getloadavg()}


def measure_setup(config: Path, work: Path) -> list:
    walls = []
    for _ in range(SETUP_SAMPLES):
        code, wall, _, _ = spawn(
            [sys.executable, "-c", SETUP_PROBE, config.name], config.parent,
            work / "setup.log")
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}; see "
                               f"{work / 'setup.log'}")
        walls.append(wall)
    return walls


def end_to_end(w, seed, seconds, config, work) -> tuple:
    """Set-up probes, then untraced CLI subprocesses for `seconds`.

    Each command does the same deterministic CPU-bound work, and other
    tenants of a shared host can only slow it down, so wall and CPU time
    are the run's fastest command (as `timeit` advises); set-up time and
    memory are medians.  The medians of the times are kept in the detail.

    Returns (metrics, detail, reference, checked commands).  When the
    timed commands run at --jobs 1 the first of them is the reference;
    otherwise a --jobs 1 reference runs first, untimed.
    """
    out = work / "out"
    setup = measure_setup(config, work)
    ref = run_cli(config, seed, 1, out) if w.jobs != 1 else None
    commands = []
    start = time.perf_counter()
    while True:
        commands.append(run_cli(config, seed, w.jobs, out))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(commands) > seconds:
            break
    slots = w.horizon * w.replications
    metrics = {
        "slots_per_s": slots / min(c.wall_s for c in commands),
        "cpu_s": min(c.cpu_s for c in commands),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": statistics.median(c.rss_mib for c in commands),
    }
    detail = {"setup_s": setup,
              "median_slots_per_s": statistics.median(
                  slots / c.wall_s for c in commands),
              "median_cpu_s": statistics.median(c.cpu_s for c in commands),
              "commands": [{"code": c.code, "wall_s": c.wall_s,
                            "cpu_s": c.cpu_s, "rss_mib": c.rss_mib}
                           for c in commands]}
    checked = ([ref] if ref else []) + commands
    return metrics, detail, ref or commands[0], checked


def import_cli():
    sys.path.insert(0, str(SRC))
    import lyaptrade.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "lyaptrade":
        raise RuntimeError(f"imported {cli.__file__}, not the checkout's")
    return cli


def traced_layers(w, seed, seconds, config, work) -> tuple:
    """An untimed --jobs 1 CLI reference, an in-process warm-up run, then
    pairs of in-process runs, untraced and traced, for `seconds`.

    Returns (per-layer metrics as low medians over the pairs, so counts
    stay whole, detail, reference, checked commands).
    """
    out = work / "out"
    ref = run_cli(config, seed, 1, out)
    cli = import_cli()
    argv = ["run", "--config", config.name, "--seed", str(seed),
            "--out", str(out), "--jobs", "1"]
    checked, rows, overheads = [ref], [], []

    def timed(call) -> float:
        (out / "summary.json").unlink(missing_ok=True)
        t0 = time.perf_counter()
        code = call()
        wall = time.perf_counter() - t0
        checked.append(Command(code, wall, 0.0, 0.0,
                               read_summary(out / "summary.json")))
        return wall

    here = os.getcwd()
    os.chdir(config.parent)
    try:
        # The first run in a process pays extra collector passes while
        # the heap grows, so it only warms up and is not paired.
        timed(lambda: cli.main(argv))
        start = time.perf_counter()
        while True:
            plain = timed(lambda: cli.main(argv))
            tracer = tracing.Tracer()
            with tracer.installed():
                traced = timed(lambda: cli.main(argv))
            rows.append(tracing.layer_metrics(tracer))
            overheads.append(traced / plain - 1)
            if time.perf_counter() - start + plain + traced > seconds:
                break
    finally:
        os.chdir(here)
    metrics = {}
    for key in rows[0]:
        values = [r[key] for r in rows]
        metrics[key] = None if None in values \
            else statistics.median_low(values)
    metrics[TRACE_OVERHEAD[0]] = statistics.median(overheads)
    tracer.write_spans(work / "spans.csv")
    detail = {"layers": tracer.stats().by_layer(),
              "missing_spans": sorted(tracer.missing),
              "trace_overhead_frac": overheads}
    return metrics, detail, ref, checked


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lyaptrade" / "cli.py").is_file():
        print(f"no lyaptrade sources under {SRC}", file=sys.stderr)
        return 2
    env = environment()
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    config = write_inputs(args.workload, args.seed, work)
    checks = json.loads(config.read_text())["verify"]

    measure = traced_layers if args.trace else end_to_end
    values, detail, ref, checked = measure(
        WORKLOADS[args.workload], args.seed, args.seconds, config, work)
    expected = expected_from(ref, checks)
    attempted = len(checked)
    failed = failed_count(checked, expected)
    if args.trace:
        units = {name: unit for name, unit, _, _ in tracing.PER_LAYER}
        units.update([TRACE_OVERHEAD])
    else:
        values["ok_frac"] = 1 - failed / attempted
        units = dict(END_TO_END)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": values[k], "unit": units[k]}
                          for k in units}}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "reference": expected, "result": result, "detail": detail}
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
