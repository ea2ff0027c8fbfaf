"""Command-line harness: backtests, oracles, verification pipelines, and
scaled-wealth experiments from one JSON config.

`run` and `verify` check a book along one path, `_deterministic_checks`,
which reports a book that breaks the queue recursion as a dynamics
failure alone.  `_pool_map` deals `run`'s replication blocks and the
lookahead oracle's frames over `--jobs` worker processes; each block
checks and writes its own books and hands back only totals and reports.

Exit codes: 0 all checks pass, 2 deterministic check failed,
3 statistical check failed, 4 capacity exceeded, 5 config or usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import os
import sys
from dataclasses import replace
from fractions import Fraction

from . import __version__
from .analysis import (BoundReport, check_frame_drift, measure_memory_epsilon,
                       verify_queue_band, verify_slot_optimality,
                       verify_thm1_profit, verify_thm2_profit, verify_thm3,
                       verify_tslot_lemma, FAIL, PASS)
from .config import (DETERMINISTIC_CHECKS, STATISTICAL_CHECKS,
                     ExperimentConfig, config_to_json, load_config,
                     open_input)
from .errors import (CapacityError, ConfigError, LyaptradeError,
                     StatisticalPowerError, StructuralError)
from .market import TradeDecision
from .money import cents_to_str
from .oracles import brute_force_slot_min, drift_rebalance, lookahead_psi, \
    solve_phi_opt
from .prices import load_trace, make_rng, save_trace, stationary_distribution
from .trader import (SlotSolver, Trajectory, run_backtest, run_profit,
                     scaled_windows_run)

EXIT_OK, EXIT_DETERMINISTIC, EXIT_STATISTICAL = 0, 2, 3
EXIT_CAPACITY, EXIT_CONFIG = 4, 5


def _resolved(cfg: ExperimentConfig):
    """(source, spec, params) with trace caps applied and the start queue
    checked, so bad place-holder holdings fail before any slot runs."""
    source, spec = cfg.source.resolve(cfg.market)
    cfg.trader.resolved_initial_queue(spec)
    return source, spec, cfg.trader


def _bundle(cfg: ExperimentConfig, body: dict) -> dict:
    bundle = {"version": __version__, "config": config_to_json(cfg), **body}
    canon = json.dumps(bundle, sort_keys=True, default=str)
    bundle["content_hash"] = hashlib.sha256(canon.encode()).hexdigest()
    return bundle


def _emit(bundle: dict, out_dir, name="summary.json"):
    text = json.dumps(bundle, indent=2, default=str)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _run_block(cfg, spec, params, source, out_dir, reps):
    """[(r, total cents, reports)] of the replications `reps`, each book
    checked and written here; one solver's slot memo spans the block."""
    solver = SlotSolver(spec, params)
    checks = set(cfg.verify) & set(DETERMINISTIC_CHECKS)
    results = []
    for r in reps:
        args = (spec, params, source, cfg.horizon, cfg.seed, r)
        if not (checks or cfg.write_trajectories):
            results.append((r, run_profit(*args, solver=solver)[0], {}))
            continue
        traj = run_backtest(*args, solver=solver)
        if r == reps[-1]:
            del solver  # the last book's checks need no walk table
        results.append((r, traj.cumulative_profit(), _deterministic_checks(
            cfg, spec, params, traj, r) if checks else {}))
        if cfg.write_trajectories:
            os.makedirs(out_dir, exist_ok=True)
            with open(os.path.join(out_dir, f"trajectory_{r}.csv"), "w") as fh:
                traj.to_csv(fh)
    return results


def _pool_map(fn, items, jobs: int) -> list:
    """[fn(item) for item in items] over min(jobs, len(items)) worker
    processes, or in this process when that is 1 or less."""
    if (workers := min(jobs, len(items))) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _need_frame(n, T) -> range:
    """The starts of the whole frames of T in n slots; a config error at
    options.window when there is none."""
    if n < T:
        raise ConfigError(f"needs at least one frame of {T} slots, but the "
                          f"trajectory has {n}", location="/options/window")
    return range(0, n - T + 1, T)


def _deterministic_checks(cfg, spec, params, traj: Trajectory, rep: int):
    """The configured checks of one book, over columns built once.  Every
    check assumes the queue recursion, so a book whose rows do not fit
    its market or break the recursion is a dynamics failure alone."""
    try:
        columns = traj.columns()
        traj.check_dynamics(columns)
    except StructuralError as exc:
        return {"dynamics": BoundReport(FAIL, -1.0, rep,
                                        {"check": "dynamics",
                                         "error": str(exc)})}
    reports = {}
    for name in cfg.verify:
        if name == "dynamics":
            reports[name] = BoundReport(PASS, detail={"check": "dynamics"})
        elif name == "queue_band":
            reports[name] = verify_queue_band(traj, columns)
        elif name == "slot_optimality":
            k = int(cfg.options.get("optimality_slots", 50))
            rng = make_rng(cfg.seed, 10 ** 6 + rep)
            slots = sorted(set(int(t) for t in rng.integers(
                0, traj.n_slots, size=k))) if traj.n_slots else []
            zero = TradeDecision.zero(spec.n_stocks)
            reports[name] = verify_slot_optimality(traj, [
                (t, d) for t in slots for d in (brute_force_slot_min(
                    params, spec, traj.prices[t], traj.queue_at(t)), zero)])
        elif name == "frame_drift":
            t0 = check_frame_drift(traj, cfg.window, columns)
            detail = {"check": "frame_drift", "window": cfg.window}
            reports[name] = BoundReport(PASS, 0.0, rep, detail) if t0 is None \
                else BoundReport(FAIL, -1.0, {"rep": rep, "t0": t0}, detail)
        elif name == "thm3":
            # The T-slot lemma on each frame, against the lookahead's own
            # decisions, sums to the bound; the first frame that fails
            # is the FAIL.
            T = cfg.window
            psi = []
            for t0 in _need_frame(traj.n_slots, T):
                frame = lookahead_psi(spec, traj.prices[t0:t0 + T])
                lemma = verify_tslot_lemma(traj, frame.decisions, t0, T)
                if not lemma.ok:
                    reports[name] = BoundReport(
                        FAIL, lemma.slack, {"rep": rep, "t0": t0},
                        {**lemma.detail, "check": "frame_lemma", "window": T})
                    break
                psi.append(frame.psi_cents)
            else:
                reports[name] = verify_thm3(traj, psi, T)
    return reports


def _check_statistical_config(cfg):
    """The config errors of thm1, thm2 and thm3, raised before any
    replication runs."""
    for name in cfg.verify:
        if name == "thm1" and cfg.source.kind != "iid":
            raise ConfigError("thm1 needs an iid source", location="/verify")
        if name == "thm2":
            if cfg.source.kind != "markov":
                raise ConfigError("thm2 needs a markov source",
                                  location="/verify")
            if cfg.horizon % cfg.window:
                raise ConfigError("horizon must be a multiple of the window",
                                  location="/horizon")
    if "thm3" in cfg.verify:
        _need_frame(cfg.horizon, cfg.window)


def _statistical_checks(cfg, spec, params, totals):
    reports = {}
    for name in cfg.verify:
        if name == "thm1":
            phi = solve_phi_opt(spec, cfg.source.dist).phi_opt
            reports[name] = verify_thm1_profit(totals, cfg.horizon, spec,
                                               params, phi)
        elif name == "thm2":
            T, model = cfg.window, cfg.source.model
            sol = drift_rebalance(solve_phi_opt(
                spec, stationary_distribution(model)))
            eps = measure_memory_epsilon(model, sol, T)
            reports[name] = verify_thm2_profit(totals, cfg.horizon // T, T,
                                               eps, spec, params, sol.phi_opt)
    return reports


def _merge(reports_by_rep):
    merged = {}
    for reports in reports_by_rep:
        for name, rep in reports.items():
            merged[name] = rep if name not in merged \
                else merged[name].merge(rep)
    return merged


def _exit_for(reports: dict) -> int:
    for name in DETERMINISTIC_CHECKS:
        if name in reports and not reports[name].ok:
            return EXIT_DETERMINISTIC
    for name in STATISTICAL_CHECKS:
        if name in reports and not reports[name].ok:
            return EXIT_STATISTICAL
    return EXIT_OK


def cmd_run(cfg: ExperimentConfig, out_dir, jobs: int) -> int:
    if cfg.source.kind == "trace" and cfg.replications > 1:
        raise ConfigError("a trace replays the same prices from the same "
                          "queue in every replication; set 1",
                          location="/replications")
    if cfg.write_trajectories and not out_dir:
        raise ConfigError("trajectories are written to the --out "
                          "directory; pass --out or set false",
                          location="/write_trajectories")
    source, spec, params = _resolved(cfg)
    _check_statistical_config(cfg)
    reps = range(cfg.replications)
    blocks = [reps[i::jobs] for i in range(min(jobs, len(reps)))]
    if len(blocks) > 1 and cfg.source.kind != "trace":
        import numpy  # noqa: F401  (once here, so forked workers inherit it)
    worker = functools.partial(_run_block, cfg, spec, params, source, out_dir)
    results = sorted((item for block in _pool_map(worker, blocks, jobs)
                      for item in block), key=lambda item: item[0])
    totals = [total for _, total, _ in results]
    reports = _merge(reports for _, _, reports in results)
    reports.update(_statistical_checks(cfg, spec, params, totals))
    avg = [float(Fraction(t, 100 * cfg.horizon)) for t in totals]
    body = {
        "results": {
            "replications": cfg.replications,
            "horizon": cfg.horizon,
            "total_profit": [cents_to_str(t) for t in totals],
            "time_avg_profit_mean": sum(avg) / len(avg),
        },
        "reports": {k: v.to_json() for k, v in reports.items()},
    }
    _emit(_bundle(cfg, body), out_dir)
    return _exit_for(reports)


def _policy_json(sol):
    table = []
    for price, acts in sol.policy.table:
        table.append({
            "price": [cents_to_str(p) for p in price],
            "actions": [{"buys": list(d.buys), "sells": list(d.sells),
                         "prob": str(q)} for d, q in acts],
        })
    return {"phi_opt": str(sol.phi_opt), "phi_opt_float": float(sol.phi_opt),
            "drifts": [str(d) for d in sol.drifts], "policy": table}


def cmd_oracle(cfg: ExperimentConfig, out_dir, jobs: int) -> int:
    source, spec, _ = _resolved(cfg)
    mode = cfg.oracle.get("mode", "phi_opt")
    if mode == "phi_opt":
        if cfg.source.kind == "iid":
            dist = cfg.source.dist
        elif cfg.source.kind == "markov":
            dist = stationary_distribution(cfg.source.model)
        else:
            raise ConfigError("phi_opt oracle needs an iid or markov source",
                              location="/oracle")
        sol = solve_phi_opt(spec, dist)
        balanced = drift_rebalance(sol)
        body = {"oracle": {"mode": "phi_opt",
                           "solution": _policy_json(sol),
                           "rebalanced": _policy_json(balanced)}}
    elif mode == "lookahead":
        if cfg.source.kind != "trace":
            raise ConfigError("lookahead oracle needs a trace source",
                              location="/oracle")
        T = cfg.window
        prices = source.sequence[:cfg.horizon]
        values = _pool_map(functools.partial(lookahead_psi, spec), [
            prices[t0:t0 + T] for t0 in _need_frame(len(prices), T)], jobs)
        body = {"oracle": {"mode": "lookahead", "window": T,
                           "psi": [cents_to_str(v.psi_cents) for v in values],
                           "psi_total": cents_to_str(
                               sum(v.psi_cents for v in values))}}
    else:
        raise ConfigError(f"unknown oracle mode {mode!r}",
                          location="/oracle/mode")
    _emit(_bundle(cfg, body), out_dir)
    return EXIT_OK


def cmd_verify(cfg: ExperimentConfig, trajectory_path, out_dir) -> int:
    bad = set(cfg.verify) & set(STATISTICAL_CHECKS)
    if bad:
        raise ConfigError(f"{sorted(bad)} need a replication ensemble; "
                          "use the run subcommand", location="/verify")
    if not trajectory_path:
        raise ConfigError("verify needs --trajectory <csv>")
    _, spec, params = _resolved(cfg)
    with open_input(trajectory_path, "--trajectory") as fh:
        traj = Trajectory.from_csv(fh, spec, params)
    reports = _deterministic_checks(cfg, spec, params, traj, 0)
    body = {"reports": {k: v.to_json() for k, v in reports.items()}}
    _emit(_bundle(cfg, body), out_dir)
    return _exit_for(reports)


def cmd_scaled(cfg: ExperimentConfig, out_dir) -> int:
    source, spec, params = _resolved(cfg)
    sc, frame = cfg.scaled, cfg.window
    beta = sc.get("beta", 0)
    frames_per_window = int(sc.get("frames_per_window",
                                   cfg.horizon // frame or 1))
    tables = [s for s in spec.stocks
              if "table" in (s.buy_cost.kind, s.sell_cost.kind)]
    if tables and Fraction(str(beta)):
        raise ConfigError(f"a positive beta grows stock {tables[0].index}'s "
                          f"trade cap past the {tables[0].mu_max} shares its "
                          "table cost covers", location="/scaled/beta")
    results = scaled_windows_run(spec, params, beta, frame, frames_per_window,
                                 int(sc.get("windows", 1)), source,
                                 seed=cfg.seed)
    W = frame * frames_per_window
    rows = []
    wealth = Fraction(0)
    for w, (q_w, scale) in enumerate(results):
        wealth += q_w * W
        rows.append({"window": w, "profit_rate": float(q_w),
                     "scale": float(scale), "cumulative_wealth": float(wealth)})
    body = {"scaled": {"frame": frame, "frames_per_window": frames_per_window,
                       "windows": rows}}
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "scaled_windows.csv"), "w") as fh:
            writer = csv.DictWriter(
                fh, ["window", "profit_rate", "scale", "cumulative_wealth"],
                lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
    _emit(_bundle(cfg, body), out_dir)
    return EXIT_OK


def cmd_trace_convert(cfg: ExperimentConfig, input_path, cap_policy,
                      out_dir) -> int:
    location = "--input"
    if not input_path:
        if cfg.source.kind != "trace":
            raise ConfigError("trace-convert needs --input or a trace source")
        input_path, location = cfg.source.path, "/source/path"
    with open_input(input_path, location) as fh:
        trace, caps = load_trace(fh, cfg.market,
                                 cap_policy=cap_policy or cfg.source.cap_policy)
    body = {"trace": {"rows": len(trace),
                      "effective_caps": [cents_to_str(c) for c in caps]}}
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "trace.csv"), "w") as fh:
            save_trace(trace, fh)
    _emit(_bundle(cfg, body), out_dir)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 5, not 2
        self.print_usage(sys.stderr)
        raise ConfigError(message, location=self.prog)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lyaptrade",
        description="Queue-driven trading engine: backtests, exact "
                    "comparison oracles, and bound verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (("run", "backtest with optional verification"),
                        ("oracle", "price-only LP or frame lookahead"),
                        ("verify", "re-check a saved trajectory CSV"),
                        ("scaled", "windowed runs with wealth re-scaling"),
                        ("trace-convert", "validate/normalize a price trace")):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True, help="experiment JSON")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default=None, help="output directory")
        if name in ("run", "oracle"):
            p.add_argument("--jobs", type=int, default=1,
                           help="parallel worker processes")
        if name == "verify":
            p.add_argument("--trajectory", default=None,
                           help="trajectory CSV to verify")
        if name == "trace-convert":
            p.add_argument("--input", default=None, help="trace CSV to read")
            p.add_argument("--cap-policy", default=None,
                           choices=("reject", "auto_expand"),
                           help="default: the config source's cap_policy")
    return parser


def main(argv=None) -> int:
    # No command calls BLAS: spare numpy's spinning OpenBLAS thread.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "jobs", 1) < 1:
            raise ConfigError(f"must be at least 1, got {args.jobs}", "--jobs")
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.command == "run":
            return cmd_run(cfg, args.out, args.jobs)
        if args.command == "oracle":
            return cmd_oracle(cfg, args.out, args.jobs)
        if args.command == "verify":
            return cmd_verify(cfg, args.trajectory, args.out)
        if args.command == "scaled":
            return cmd_scaled(cfg, args.out)
        if args.command == "trace-convert":
            return cmd_trace_convert(cfg, args.input, args.cap_policy,
                                     args.out)
        raise ConfigError(f"unknown command {args.command!r}")
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except StatisticalPowerError as exc:
        print(f"statistical power: {exc}", file=sys.stderr)
        return EXIT_STATISTICAL
    except LyaptradeError as exc:
        print(f"config: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
