"""Experiment config parsing and the CLI harness contract."""

import json
import random
import re

import pytest

from lyaptrade import (MarketSpec, StockSpec, Trajectory, config_from_json,
                       config_to_json, enumerate_actions, lookahead_psi)
from lyaptrade import cli
from lyaptrade.cli import main
from lyaptrade.errors import CapacityError, ConfigError

BASE = {
    "market": {"stocks": [{"mu_max": 1, "p_max": "2.00"}],
               "budget": {"mode": "none"}},
    "trader": {"V": "50"},
    "source": {"kind": "iid", "support": [["1.00"], ["2.00"]],
               "probs": [0.5, 0.5]},
    "horizon": 200,
    "seed": 7,
}
NON_FINITE = ("NaN", "sNaN", "Infinity", "-Infinity")
MARKOV = {"kind": "markov", "states": [["1.00"], ["2.00"]],
          "transition": [[0.5, 0.5], [0.5, 0.5]]}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_summary(tmp_path):
    with open(tmp_path / "out" / "summary.json") as fh:
        return json.load(fh)


class TestConfig:
    def test_round_trip(self):
        cfg = config_from_json(BASE)
        again = config_from_json(config_to_json(cfg))
        assert config_to_json(again) == config_to_json(cfg)

    def test_seed_required(self):
        doc = dict(BASE)
        del doc["seed"]
        with pytest.raises(ConfigError):
            config_from_json(doc)

    def test_unknown_check_rejected(self):
        doc = dict(BASE, verify=["sharpe_ratio"])
        with pytest.raises(ConfigError) as err:
            config_from_json(doc)
        assert "/verify" in str(err.value)

    def test_markov_source(self):
        doc = dict(BASE, source={
            "kind": "markov", "states": [["1.00"], ["2.00"]],
            "transition": [[0.5, 0.5], [0.5, 0.5]]})
        cfg = config_from_json(doc)
        assert cfg.source.model.n_states == 2

    def test_bad_transition_entry_located(self, tmp_path, capsys):
        doc = dict(BASE, source={
            "kind": "markov", "states": [["1.00"], ["2.00"]],
            "transition": [[0.5, 0.5], ["x", "1/2"]]})
        assert main(["run", "--config", write_config(tmp_path, doc)]) == 5
        assert "/source/transition/1/0" in capsys.readouterr().err

    @pytest.mark.parametrize("change, location", [
        ({"source": dict(BASE["source"], probs=["x", 0.5])},
         "/source/probs/0"),
        ({"source": {"kind": "markov", "states": [["1.00"], ["2.00"]],
                     "transition": [0.5, 0.5]}}, "/source/transition/0"),
        ({"source": {"kind": "markov", "states": [["1.00"], ["2.00"]],
                     "transition": [[0.5, 0.5], ["1/3", "1/3"]]}},
         "/source/transition/1"),
        ({"horizon": "ten"}, "/horizon"),
        ({"seed": -1}, "/seed"),
        ({"replications": "2x"}, "/replications"),
        ({"verify": ["frame_drift"], "options": {"window": "x"}},
         "/options/window"),
        ({"verify": ["frame_drift"], "options": {"window": 0}},
         "/options/window"),
        ({"verify": ["slot_optimality"],
          "options": {"optimality_slots": "many"}},
         "/options/optimality_slots"),
        ({"oracle": {"mode": "lookahead", "window": "x"}}, "/oracle/window"),
        ({"scaled": {"beta": 0, "frame": "x"}}, "/scaled/frame"),
        ({"horizon": 8.9}, "/horizon"),
        ({"horizon": True}, "/horizon"),
        ({"verify": ["frame_drift"], "options": {"window": 2.5}},
         "/options/window"),
        ({"scaled": {"beta": "x"}}, "/scaled/beta"),
        ({"scaled": {"beta": -0.1}}, "/scaled/beta"),
        ({"market": {"stocks": [{"mu_max": 1.9, "p_max": "2.00"}]}},
         "/market/stocks/0/mu_max"),
        ({"market": {"stocks": [{"mu_max": 1, "p_max": "2.00"}],
                     "budget": {"mode": "shares", "value": 2.7}}},
         "/market/budget/value"),
        ({"trader": {"V": "50", "initial_queue": [1.5]}},
         "/trader/initial_queue/0"),
        ({"trader": {"V": "50", "initial_queue": [1, 2]}},
         "/trader/initial_queue"),
        ({"market": {"stocks": [{"mu_max": 1, "p_max": "2.00"}] * 2},
          "trader": {"V": "50", "initial_queue": [1]}},
         "/trader/initial_queue"),
        ({"trader": {"V": "50", "theta": ["1", "2"]}}, "/trader/theta"),
        ({"trader": {"V": "50", "buy_solver": "fastest"}},
         "/trader/buy_solver"),
        ({"trader": {"V": "0"}}, "/trader/V"),
        ({"trader": {"V": "50", "placeholder": "false"}},
         "/trader/placeholder"),
        ({"write_trajectories": "no"}, "/write_trajectories"),
    ], ids=["probs-entry", "row-not-list", "row-sum", "horizon", "seed",
            "replications", "window", "window-zero", "optimality-slots",
            "oracle-window", "scaled-frame", "horizon-fractional",
            "horizon-bool", "window-fractional", "scaled-beta",
            "scaled-beta-negative", "mu-max-fractional",
            "share-budget-fractional", "initial-queue-fractional",
            "initial-queue-long", "initial-queue-short", "theta-length",
            "buy-solver-unknown", "v-not-positive",
            "placeholder-string", "write-trajectories-string"])
    def test_bad_field_located(self, tmp_path, capsys, change, location):
        doc = dict(BASE, **change)
        assert main(["run", "--config", write_config(tmp_path, doc)]) == 5
        err = capsys.readouterr().err
        assert err.startswith(f"config: {location}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_money_is_located(self, tmp_path, capsys, value):
        doc = dict(BASE, market={"stocks": [{"mu_max": 1, "p_max": value}],
                                 "budget": {"mode": "none"}})
        assert main(["run", "--config", write_config(tmp_path, doc)]) == 5
        err = capsys.readouterr().err
        assert err.startswith(f"config: /market: stocks[0].p_max: "
                              f"{value!r} is not a finite amount"), err

    def test_integer_forms_accepted(self):
        cfg = config_from_json(dict(BASE, horizon="10", seed=3.0,
                                    options={"window": "2"}))
        assert (cfg.horizon, cfg.seed, cfg.options["window"]) == (10, 3, "2")

    def test_row_sum_names_exact_sum(self, tmp_path, capsys):
        third = 0.3333333333333333  # passed a 1e-12 float tolerance before
        doc = dict(BASE, source={
            "kind": "markov", "states": [["1.00"], ["2.00"], ["1.50"]],
            "transition": [[third] * 3] * 3})
        assert main(["run", "--config", write_config(tmp_path, doc)]) == 5
        err = capsys.readouterr().err
        assert "/source/transition/0" in err
        assert "9999999999999999/10000000000000000" in err
        assert '"1/3"' in err

    def test_fraction_transitions_round_trip(self):
        doc = dict(BASE, source={
            "kind": "markov", "states": [["1.00"], ["2.00"]],
            "transition": [["1/3", "2/3"], [0.5, "0.5"]]})
        cfg = config_from_json(doc)
        echo = config_to_json(cfg)["source"]["transition"]
        assert echo == [["1/3", "2/3"], ["1/2", "1/2"]]
        assert config_to_json(config_from_json(
            dict(BASE, source=config_to_json(cfg)["source"]))) \
            == config_to_json(cfg)

    def test_bad_location_reported(self):
        doc = dict(BASE, source={"kind": "lognormal"})
        with pytest.raises(ConfigError) as err:
            config_from_json(doc)
        assert "/source" in str(err.value)


class TestRun:
    def test_run_with_checks_exits_zero(self, tmp_path):
        doc = dict(BASE, verify=["dynamics", "queue_band"])
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
        summary = read_summary(tmp_path)
        assert summary["reports"]["queue_band"]["verdict"] == "pass"
        assert summary["results"]["replications"] == 1

    def test_reproducible_hash(self, tmp_path):
        cfg = write_config(tmp_path, dict(BASE, replications=3))
        hashes = []
        for d in ("a", "b"):
            main(["run", "--config", cfg, "--out", str(tmp_path / d)])
            with open(tmp_path / d / "summary.json") as fh:
                hashes.append(json.load(fh)["content_hash"])
        assert hashes[0] == hashes[1]

    def test_jobs_do_not_change_results(self, tmp_path):
        cfg = write_config(tmp_path, dict(BASE, replications=4))
        for d, jobs in (("s", "1"), ("p", "2")):
            main(["run", "--config", cfg, "--jobs", jobs,
                  "--out", str(tmp_path / d)])
        a = json.loads((tmp_path / "s" / "summary.json").read_text())
        b = json.loads((tmp_path / "p" / "summary.json").read_text())
        assert a["content_hash"] == b["content_hash"]

    @pytest.mark.parametrize("reps, pools", [(1, []), (4, [2])])
    def test_run_pool_never_outnumbers_blocks(self, tmp_path, monkeypatch,
                                              reps, pools):
        # --jobs 2 forks one worker per block of replications, and none
        # for a single block; the summary is that of --jobs 1.
        import concurrent.futures
        opened = []

        class Counted(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                opened.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            Counted)
        cfg = write_config(tmp_path, dict(BASE, replications=reps,
                                          verify=["dynamics"]))
        hashes = []
        for jobs in ("1", "2"):
            out = tmp_path / jobs
            assert main(["run", "--config", cfg, "--jobs", jobs,
                         "--out", str(out)]) == 0
            hashes.append(json.loads((out / "summary.json").read_text())
                          ["content_hash"])
        assert opened == pools
        assert hashes[0] == hashes[1]

    @pytest.mark.parametrize("command", ["run", "oracle", "verify", "scaled",
                                         "trace-convert"])
    @pytest.mark.parametrize("args, message", [
        (["--jobs", "0"], "--jobs: must be at least 1, got 0"),
        (["--jobs", "-1"], "--jobs: must be at least 1, got -1"),
        (["--jobs", "x"], "argument --jobs: invalid int value: 'x'"),
        (["--bogus"], "unrecognized arguments: --bogus"),
    ])
    def test_usage_error_is_a_located_config_error(self, tmp_path, capsys,
                                                   command, args, message):
        # Only run and oracle take --jobs; the other commands reject it
        # as they reject any unknown flag.
        if command not in ("run", "oracle") and "--jobs" in args:
            message = "unrecognized arguments: " + " ".join(args)
        doc = dict(BASE, oracle={"mode": "phi_opt"})
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out), *args]) \
            == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config: " in err and message in err, err
        assert not out.exists()

    def test_jobs_deal_markov_replications_into_blocks(self, tmp_path):
        doc = dict(BASE, replications=5, horizon=400, source={
            "kind": "markov", "states": [["1.00"], ["2.00"], ["1.50"]],
            "transition": [["1/2", "1/4", "1/4"], ["1/5", "3/5", "1/5"],
                           ["1/4", "1/4", "1/2"]]})
        cfg = write_config(tmp_path, doc)
        hashes = set()
        for jobs in ("1", "2", "3"):
            out = tmp_path / jobs
            assert main(["run", "--config", cfg, "--jobs", jobs,
                         "--out", str(out)]) == 0
            hashes.add(json.loads((out / "summary.json").read_text())
                       ["content_hash"])
        assert len(hashes) == 1

    def test_jobs_write_identical_trajectories(self, tmp_path, monkeypatch):
        # Each worker checks and writes the books it makes: none is
        # pickled back to the parent (the forked workers inherit this).
        def no_pickle(self, protocol):
            raise AssertionError("a book left the worker that made it")
        monkeypatch.setattr(Trajectory, "__reduce_ex__", no_pickle)
        doc = dict(BASE, replications=4, horizon=300, write_trajectories=True,
                   verify=["dynamics", "queue_band"])
        cfg = write_config(tmp_path, doc)
        for jobs in ("1", "2", "3"):
            assert main(["run", "--config", cfg, "--jobs", jobs,
                         "--out", str(tmp_path / jobs)]) == 0
        for name in [f"trajectory_{r}.csv" for r in range(4)] \
                + ["summary.json"]:
            for jobs in ("2", "3"):
                assert (tmp_path / "1" / name).read_bytes() \
                    == (tmp_path / jobs / name).read_bytes(), (name, jobs)

    def test_seed_override_changes_results(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        main(["run", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["run", "--config", cfg, "--seed", "99",
              "--out", str(tmp_path / "b")])
        a = json.loads((tmp_path / "a" / "summary.json").read_text())
        b = json.loads((tmp_path / "b" / "summary.json").read_text())
        assert a["content_hash"] != b["content_hash"]

    def test_statistical_check(self, tmp_path):
        doc = dict(BASE, replications=30, horizon=2000, verify=["thm1"])
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
        assert read_summary(tmp_path)["reports"]["thm1"]["verdict"] == "pass"

    def test_bad_config_exits_five(self, tmp_path):
        cfg = write_config(tmp_path, {"market": {}})
        assert main(["run", "--config", cfg]) == 5

    @pytest.mark.parametrize("change, location, message", [
        ({"verify": ["thm1"], "source": MARKOV}, "/verify",
         "thm1 needs an iid source"),
        ({"verify": ["thm2"]}, "/verify", "thm2 needs a markov source"),
        ({"verify": ["thm2"], "source": MARKOV, "horizon": 201}, "/horizon",
         "horizon must be a multiple of the window"),
    ], ids=["thm1-not-iid", "thm2-not-markov", "thm2-horizon"])
    def test_statistical_config_checked_before_any_run(
            self, tmp_path, capsys, monkeypatch, change, location, message):
        def no_run(*args, **kwargs):
            raise AssertionError("a replication ran")
        monkeypatch.setattr(cli, "run_profit", no_run)
        monkeypatch.setattr(cli, "run_backtest", no_run)
        doc = dict(BASE, replications=30, **change)
        assert main(["run", "--config", write_config(tmp_path, doc)]) == 5
        assert capsys.readouterr().err == f"config: {location}: {message}\n"

    def test_trajectories_without_out_checked_before_any_run(
            self, tmp_path, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a replication ran")
        monkeypatch.setattr(cli, "run_profit", no_run)
        monkeypatch.setattr(cli, "run_backtest", no_run)
        doc = dict(BASE, write_trajectories=True)
        assert main(["run", "--config", write_config(tmp_path, doc)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("config: /write_trajectories: ")
        assert "--out" in err

    @pytest.mark.parametrize("command", ["run", "verify", "scaled", "oracle"])
    def test_bad_placeholder_holdings_exit_five(self, tmp_path, capsys,
                                                command):
        doc = dict(BASE, trader={"V": "50", "initial_queue": [103],
                                 "placeholder": True})
        extra = ["--trajectory", "x.csv"] if command == "verify" else []
        assert main([command, "--config", write_config(tmp_path, doc)]
                    + extra) == 5
        assert capsys.readouterr().err == \
            "config: actual holdings 103 outside [0, 102] for stock 0\n"

    def test_greedy_with_share_budget_is_located(self, tmp_path, capsys):
        doc = dict(BASE, trader={"V": "50", "buy_solver": "greedy"},
                   market=dict(BASE["market"],
                               budget={"mode": "shares", "value": 1}))
        assert main(["run", "--config", write_config(tmp_path, doc)]) == 5
        err = capsys.readouterr().err
        assert "/trader/buy_solver" in err and "Traceback" not in err, err

    def test_verify_scores_a_greedy_share_budget_book(self, tmp_path,
                                                      capsys):
        # `run` rejects this trader (above), but `verify` builds no
        # solver: slot_optimality scores the book, here one the exact
        # solver made under the same share budget, and passes it.
        market = dict(BASE["market"], budget={"mode": "shares", "value": 1})
        doc = dict(BASE, market=market, write_trajectories=True)
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 0
        doc = dict(doc, trader={"V": "50", "buy_solver": "greedy"},
                   verify=["dynamics", "slot_optimality"])
        capsys.readouterr()
        assert main(["verify", "--config",
                     write_config(tmp_path, doc, "verify.json"),
                     "--trajectory", str(out / "trajectory_0.csv")]) == 0
        reports = json.loads(capsys.readouterr().out)["reports"]
        assert {k: r["verdict"] for k, r in reports.items()} \
            == {"dynamics": "pass", "slot_optimality": "pass"}

    def test_share_budget_solver_points_to_exact(self, tmp_path, capsys):
        doc = dict(BASE, trader={"V": "50", "buy_solver": "share_budget"},
                   market=dict(BASE["market"],
                               budget={"mode": "shares", "value": 1}))
        assert main(["run", "--config", write_config(tmp_path, doc)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("config: /trader/buy_solver: "), err
        assert "'exact'" in err and "Traceback" not in err, err

    def test_missing_trace_file_is_located(self, tmp_path, capsys):
        doc = dict(BASE, source={"kind": "trace",
                                 "path": str(tmp_path / "missing.csv")})
        assert main(["run", "--config", write_config(tmp_path, doc)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("config: /source/path: cannot read "), err
        assert "missing.csv" in err and "Traceback" not in err

    def test_trace_with_several_replications_rejected(self, tmp_path,
                                                      capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("slot,p_1\n0,1.00\n1,2.00\n")
        doc = dict(BASE, horizon=2, replications=3,
                   source={"kind": "trace", "path": str(trace)})
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", cfg]) == 5
        err = capsys.readouterr().err
        assert err.startswith("config: /replications: "), err
        # The commands that ignore the field still accept it.
        assert main(["trace-convert", "--config", cfg]) == 0
        assert main(["run", "--config", write_config(
            tmp_path, dict(doc, replications=1))]) == 0

    def test_trajectory_output(self, tmp_path):
        doc = dict(BASE, write_trajectories=True, horizon=10)
        cfg = write_config(tmp_path, doc)
        main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        rows = (tmp_path / "out" / "trajectory_0.csv").read_text().splitlines()
        assert rows[0] == "slot,p_1,A_1,mu_1,Q_1,profit"
        assert len(rows) == 11


class TestVerifySubcommand:
    def test_corrupted_trajectory_fails_deterministically(self, tmp_path,
                                                          capsys):
        doc = dict(BASE, write_trajectories=True, horizon=50,
                   verify=["queue_band"])
        cfg = write_config(tmp_path, doc)
        main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        traj_csv = tmp_path / "out" / "trajectory_0.csv"
        assert main(["verify", "--config", cfg,
                     "--trajectory", str(traj_csv)]) == 0
        lines = traj_csv.read_text().splitlines()
        cols = lines[20].split(",")
        cols[4] = "0"  # drop the queue below its floor
        lines[20] = ",".join(cols)
        traj_csv.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["verify", "--config", cfg,
                     "--trajectory", str(traj_csv)]) == 2
        reports = json.loads(capsys.readouterr().out)["reports"]
        assert list(reports) == ["dynamics"]
        assert reports["dynamics"]["verdict"] == "fail"
        assert "slot 19" in reports["dynamics"]["detail"]["error"]

    def test_book_checked_once_and_transposed_once(self, tmp_path, capsys,
                                                   monkeypatch):
        # The recursion gate's columns serve the checks after it.
        doc = dict(BASE, write_trajectories=True, horizon=50,
                   verify=["dynamics", "queue_band", "frame_drift"],
                   options={"window": 4})
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
        expected = read_summary(tmp_path)["reports"]
        calls = []
        for name in ("check_dynamics", "columns"):
            def counted(self, *args, _fn=getattr(Trajectory, name),
                        _name=name):
                calls.append(_name)
                return _fn(self, *args)
            monkeypatch.setattr(Trajectory, name, counted)
        traj_csv = tmp_path / "out" / "trajectory_0.csv"
        capsys.readouterr()
        assert main(["verify", "--config", cfg,
                     "--trajectory", str(traj_csv)]) == 0
        assert json.loads(capsys.readouterr().out)["reports"] == expected
        assert sorted(calls) == ["check_dynamics", "columns"]
        lines = traj_csv.read_text().splitlines()
        cols = lines[20].split(",")
        cols[4] = "0"  # drop the queue below its floor
        lines[20] = ",".join(cols)
        traj_csv.write_text("\n".join(lines) + "\n")
        calls.clear()
        assert main(["verify", "--config", cfg,
                     "--trajectory", str(traj_csv)]) == 2
        reports = json.loads(capsys.readouterr().out)["reports"]
        assert list(reports) == ["dynamics"]
        assert "slot 19" in reports["dynamics"]["detail"]["error"]
        assert sorted(calls) == ["check_dynamics", "columns"]

    def test_run_and_verify_gate_each_book_alike(self, tmp_path, capsys):
        # `run` and `verify` check a book along one path: the same
        # reports on the book `run` wrote, and a dynamics failure alone,
        # checked or not, once it breaks the queue recursion.
        trace = tmp_path / "trace.csv"
        trace.write_text("slot,p_1\n" + "".join(
            f"{t},{1 + t % 3 // 2}.00\n" for t in range(24)))
        checks = ["dynamics", "queue_band", "slot_optimality", "frame_drift",
                  "thm3"]
        doc = dict(BASE, horizon=24, write_trajectories=True, verify=checks,
                   source={"kind": "trace", "path": str(trace)},
                   options={"window": 4, "optimality_slots": 8})
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
        expected = read_summary(tmp_path)["reports"]
        assert list(expected) == checks
        book = tmp_path / "out" / "trajectory_0.csv"
        capsys.readouterr()
        assert main(["verify", "--config", cfg,
                     "--trajectory", str(book)]) == 0
        assert json.loads(capsys.readouterr().out)["reports"] == expected
        lines = book.read_text().splitlines()
        cols = lines[10].split(",")
        cols[4] = str(int(cols[4]) + 1)  # slot,p_1,A_1,mu_1,Q_1,profit
        lines[10] = ",".join(cols)
        book.write_text("\n".join(lines) + "\n")
        for verify in (checks, checks[1:]):
            doc["verify"] = verify
            cfg = write_config(tmp_path, doc)
            assert main(["verify", "--config", cfg,
                         "--trajectory", str(book)]) == 2
            reports = json.loads(capsys.readouterr().out)["reports"]
            assert reports == {"dynamics": {
                "verdict": "fail", "slack": -1.0, "locus": 0,
                "detail": {"check": "dynamics", "error":
                           "queue dynamics violated at slot 9"}}}
            config = config_from_json(doc)
            spec, params = cli._resolved(config)[1:]
            with open(book) as fh:
                traj = Trajectory.from_csv(fh, spec, params)
            got = cli._deterministic_checks(config, spec, params, traj, 0)
            assert {k: v.to_json() for k, v in got.items()} == reports

    def test_row_of_wrong_width_is_a_dynamics_fail(self, tmp_path, capsys,
                                                  monkeypatch):
        # Only a library caller can hand over such a book; the CSV reader
        # fixes the width.
        doc = dict(BASE, write_trajectories=True, horizon=30,
                   verify=["queue_band", "frame_drift"])
        cfg = write_config(tmp_path, doc)
        main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        read = Trajectory.from_csv

        def short_row(*args, **kwargs):
            traj = read(*args, **kwargs)
            traj.queues[12] = (1, 1)
            return traj

        monkeypatch.setattr(Trajectory, "from_csv", short_row)
        capsys.readouterr()
        assert main(["verify", "--config", cfg, "--trajectory",
                     str(tmp_path / "out" / "trajectory_0.csv")]) == 2
        out = capsys.readouterr()
        assert "Traceback" not in out.err
        assert json.loads(out.out)["reports"] == {"dynamics": {
            "verdict": "fail", "slack": -1.0, "locus": 0,
            "detail": {"check": "dynamics", "error":
                       "slot 12: queue row has 2 entries, expected 1"}}}

    @staticmethod
    def _verify_oversize_buy(tmp_path, capsys, slot):
        """`verify` on a run's CSV given a 50-share buy (mu_max 1) at
        `slot`, its queues rebuilt by the recursion: (exit, reports)."""
        doc = dict(BASE, write_trajectories=True, horizon=50,
                   verify=["dynamics", "frame_drift"], options={"window": 4})
        cfg = write_config(tmp_path, doc)
        main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        traj_csv = tmp_path / "out" / "trajectory_0.csv"
        lines = traj_csv.read_text().splitlines()
        q = 1  # the initial queue, mu_max
        for k in range(1, len(lines)):  # slot,p_1,A_1,mu_1,Q_1,profit
            cols = lines[k].split(",")
            if k == slot + 1:
                cols[2] = "50"
            q = max(q - int(cols[3]) + int(cols[2]), 0)
            cols[4] = str(q)
            lines[k] = ",".join(cols)
        traj_csv.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["verify", "--config", cfg, "--trajectory", str(traj_csv)])
        return code, json.loads(capsys.readouterr().out)["reports"]

    def test_oversize_trade_fails_frame_drift(self, tmp_path, capsys):
        code, reports = self._verify_oversize_buy(tmp_path, capsys, 0)
        assert code == 2
        assert reports["dynamics"]["verdict"] == "pass"
        assert reports["frame_drift"]["verdict"] == "fail"

    def test_frame_drift_fail_names_the_frame(self, tmp_path, capsys):
        code, reports = self._verify_oversize_buy(tmp_path, capsys, 20)
        assert code == 2
        assert reports["frame_drift"]["verdict"] == "fail"
        assert reports["frame_drift"]["locus"] == {"rep": 0, "t0": 20}

    def test_header_only_book_samples_no_slot(self, tmp_path, capsys):
        book = tmp_path / "empty.csv"
        book.write_text("slot,p_1,A_1,mu_1,Q_1,profit\n")
        cfg = write_config(tmp_path, dict(
            BASE, verify=["dynamics", "queue_band", "frame_drift",
                          "slot_optimality"]))
        assert main(["verify", "--config", cfg,
                     "--trajectory", str(book)]) == 0
        reports = json.loads(capsys.readouterr().out)["reports"]
        assert all(r["verdict"] == "pass" for r in reports.values())
        assert reports["slot_optimality"]["locus"] is None

    def test_fractional_share_cell_is_located(self, tmp_path, capsys):
        doc = dict(BASE, write_trajectories=True, horizon=50,
                   verify=["queue_band"])
        cfg = write_config(tmp_path, doc)
        main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        traj_csv = tmp_path / "out" / "trajectory_0.csv"
        lines = traj_csv.read_text().splitlines()
        cols = lines[2].split(",")  # slot,p_1,A_1,mu_1,Q_1,profit
        cols[3] = "1.5"
        lines[2] = ",".join(cols)
        traj_csv.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["verify", "--config", cfg,
                     "--trajectory", str(traj_csv)]) == 5
        err = capsys.readouterr().err
        assert "row 2/mu_1" in err and "'1.5'" in err, err

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_price_cell_is_located(self, tmp_path, capsys, value):
        doc = dict(BASE, write_trajectories=True, horizon=20,
                   verify=["dynamics"])
        cfg = write_config(tmp_path, doc)
        main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        traj_csv = tmp_path / "out" / "trajectory_0.csv"
        lines = traj_csv.read_text().splitlines()
        lines[2] = ",".join(["1", value] + lines[2].split(",")[2:])
        traj_csv.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["verify", "--config", cfg,
                     "--trajectory", str(traj_csv)]) == 5
        err = capsys.readouterr().err
        assert err.startswith(f"config: row 2: non-finite price {value!r}"), \
            err

    @pytest.mark.parametrize("row, edit, message", [
        (0, lambda cols: ["slot", "p_1", "A_1", "mu_1", "Q_1",
                          "p_2", "A_2", "mu_2", "Q_2", "profit"],
         "bad header"),
        (3, lambda cols: ["7"] + cols[1:],
         "row 3: slot 7 out of order (expected 2)"),
        (2, lambda cols: cols[:-1] + ["--5.00"],
         "row 2: negative price '-5.00'"),
    ], ids=["interleaved-header", "slot-number", "double-minus"])
    def test_layout_mismatch_is_a_parse_error(self, tmp_path, capsys, row,
                                              edit, message):
        doc = dict(BASE, write_trajectories=True, horizon=20,
                   verify=["dynamics", "queue_band"],
                   market={"stocks": [{"mu_max": 1, "p_max": "2.00"}] * 2,
                           "budget": {"mode": "none"}},
                   source={"kind": "iid",
                           "support": [["1.00", "2.00"], ["2.00", "1.00"]],
                           "probs": [0.5, 0.5]})
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
        traj_csv = tmp_path / "out" / "trajectory_0.csv"
        lines = traj_csv.read_text().splitlines()
        lines[row] = ",".join(edit(lines[row].split(",")))
        traj_csv.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["verify", "--config", cfg,
                     "--trajectory", str(traj_csv)]) == 5
        err = capsys.readouterr().err
        assert err.startswith(f"config: {message}"), err

    @pytest.mark.parametrize("checks", [
        ["dynamics"], ["dynamics", "slot_optimality"], ["dynamics", "thm3"]])
    def test_price_over_its_cap_is_located(self, tmp_path, capsys, checks):
        # A book price above its stock's cap is a parse error that names
        # the row in money strings, whichever checks are named.
        trace = tmp_path / "trace.csv"
        trace.write_text("slot,p_1\n" + "".join(
            f"{t},{(1, 2, 0.5)[t % 3]:.2f}\n" for t in range(12)))
        doc = dict(BASE, horizon=12, write_trajectories=True,
                   source={"kind": "trace", "path": str(trace)},
                   verify=checks, options={"window": 4})
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
        book = tmp_path / "out" / "trajectory_0.csv"
        lines = book.read_text().splitlines()
        lines[7] = ",".join(["6", "9.99"] + lines[7].split(",")[2:])
        book.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["verify", "--config", cfg, "--trajectory",
                     str(book)]) == 5
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(
            "config: row 7: price 9.99 exceeds cap 2.00 for stock 0"), err

    def test_missing_trajectory_is_located(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(BASE, verify=["queue_band"]))
        assert main(["verify", "--config", cfg, "--trajectory",
                     str(tmp_path / "missing.csv")]) == 5
        err = capsys.readouterr().err
        assert err.startswith("config: --trajectory: cannot read "), err
        assert "Traceback" not in err

    def test_statistical_names_rejected(self, tmp_path):
        cfg = write_config(tmp_path, dict(BASE, verify=["thm1"]))
        assert main(["verify", "--config", cfg, "--trajectory", "x.csv"]) == 5


class TestOracleSubcommand:
    def test_phi_opt(self, tmp_path, capsys):
        doc = dict(BASE, oracle={"mode": "phi_opt"})
        assert main(["oracle", "--config", write_config(tmp_path, doc)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["oracle"]["solution"]["phi_opt_float"] == 0.5
        assert out["oracle"]["rebalanced"]["drifts"] == ["0"]

    def test_phi_opt_on_fraction_markov_chain(self, tmp_path, capsys):
        doc = dict(BASE, oracle={"mode": "phi_opt"}, source={
            "kind": "markov", "states": [["1.00"], ["2.00"]],
            "transition": [["1/3", "2/3"], ["1/2", "1/2"]]})
        assert main(["oracle", "--config", write_config(tmp_path, doc)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["config"]["source"]["transition"] == [["1/3", "2/3"],
                                                         ["1/2", "1/2"]]
        # Stationary (3/7, 4/7): buy a share at every 1.00 and sell as many
        # at 2.00, earning 1.00 on 3/7 of the slots.
        assert out["oracle"]["solution"]["phi_opt"] == "3/7"
        assert out["oracle"]["rebalanced"]["drifts"] == ["0"]

    def test_lookahead_on_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("slot,p_1\n0,1.00\n1,2.00\n2,2.00\n3,1.00\n")
        doc = dict(BASE, horizon=4,
                   source={"kind": "trace", "path": str(trace)},
                   oracle={"mode": "lookahead", "window": 2})
        assert main(["oracle", "--config", write_config(tmp_path, doc)]) == 0
        out = json.loads(capsys.readouterr().out)
        # second frame shorts at 2.00 and covers at 1.00
        assert out["oracle"]["psi"] == ["1.00", "1.00"]

    @pytest.mark.parametrize("rows, pools", [(1, []), (2, []), (4, [2])])
    def test_lookahead_pool_never_outnumbers_frames(self, tmp_path, capsys,
                                                    monkeypatch, rows, pools):
        # The oracle at --jobs 3 forks one worker per frame at most, and
        # none for one frame; thm3 under a one-block run or verify forks
        # none.  Each output is that of --jobs 1.  One slot holds no
        # frame of 2: a config error at either --jobs, before any pool.
        import concurrent.futures
        opened = []

        class Counted(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                opened.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            Counted)
        trace = tmp_path / "trace.csv"
        trace.write_text("slot,p_1\n" + "".join(
            f"{t},{1 + t % 2}.00\n" for t in range(rows)))
        doc = dict(BASE, horizon=rows,
                   source={"kind": "trace", "path": str(trace)},
                   oracle={"mode": "lookahead", "window": 2},
                   options={"window": 2})
        book = tmp_path / "book" / "trajectory_0.csv"
        writer = write_config(tmp_path, dict(doc, write_trajectories=True),
                              "book.json")
        assert main(["run", "--config", writer, "--out", str(book.parent)]) \
            == 0
        thm3 = write_config(tmp_path, dict(doc, verify=["thm3"]), "thm3.json")
        jobs = (["--jobs", "1"], ["--jobs", "3"])
        for argv, location, forks, flags in (
                (["oracle", "--config", write_config(tmp_path, doc)],
                 "/oracle/window", pools, jobs),
                (["run", "--config", thm3], "/options/window", [], jobs),
                (["verify", "--config", thm3, "--trajectory", str(book)],
                 "/options/window", [], ([],))):
            opened.clear()
            results = []
            for flag in flags:
                code = main([*argv, *flag])
                out, err = capsys.readouterr()
                results.append((code, err) if code else
                               (code, json.loads(out)))
            assert opened == forks, argv
            assert results[0] == results[-1], argv
            code, got = results[0]
            if rows < 2:
                assert code == 5 and location in got, got
            elif argv[0] == "oracle":
                assert code == 0 and len(got["oracle"]["psi"]) == rows // 2
            else:
                assert code == 0 and got["reports"]["thm3"]["verdict"] \
                    == "pass", got

    @pytest.mark.parametrize("horizon, window, slots", [(3, 4, 3), (2, 3, 2)])
    def test_window_longer_than_the_trace_is_located(self, tmp_path, capsys,
                                                     horizon, window, slots):
        # No whole frame within the horizon is a located config error,
        # as it is for thm3 under `run`, not an empty psi.
        trace = tmp_path / "trace.csv"
        trace.write_text("slot,p_1\n0,1.00\n1,2.00\n2,1.00\n")
        doc = dict(BASE, horizon=horizon,
                   source={"kind": "trace", "path": str(trace)},
                   oracle={"mode": "lookahead", "window": window})
        assert main(["oracle", "--config", write_config(tmp_path, doc)]) == 5
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config: /oracle/window: ") \
            and f"frame of {window} slots" in err \
            and f"has {slots} within" in err, err

    def test_constant_trace_zero_psi(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("slot,p_1\n0,1.00\n1,1.00\n")
        doc = dict(BASE, horizon=2,
                   source={"kind": "trace", "path": str(trace)},
                   oracle={"mode": "lookahead", "window": 2})
        main(["oracle", "--config", write_config(tmp_path, doc)])
        out = json.loads(capsys.readouterr().out)
        assert out["oracle"]["psi"] == ["0.00"]


class TestScaledSubcommand:
    def test_beta_zero_flat(self, tmp_path):
        doc = dict(BASE, scaled={"beta": 0, "frame": 4,
                                 "frames_per_window": 10, "windows": 3})
        cfg = write_config(tmp_path, doc)
        assert main(["scaled", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
        summary = read_summary(tmp_path)
        scales = [w["scale"] for w in summary["scaled"]["windows"]]
        assert scales == [1.0, 1.0, 1.0]

    def test_profitable_scaling_grows(self, tmp_path):
        doc = dict(BASE, scaled={"beta": 0.1, "frame": 4,
                                 "frames_per_window": 50, "windows": 3})
        cfg = write_config(tmp_path, doc)
        main(["scaled", "--config", cfg, "--out", str(tmp_path / "out")])
        summary = read_summary(tmp_path)
        scales = [w["scale"] for w in summary["scaled"]["windows"]]
        assert scales[0] < scales[1] < scales[2]
        csv_text = (tmp_path / "out" / "scaled_windows.csv").read_text()
        assert csv_text.startswith("window,profit_rate,scale")


    @pytest.mark.parametrize("beta", ["x", -1])
    def test_bad_beta_located(self, tmp_path, capsys, beta):
        doc = dict(BASE, scaled={"beta": beta, "frame": 4})
        assert main(["scaled", "--config", write_config(tmp_path, doc)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("config: /scaled/beta: ")
        assert "Traceback" not in err


class TestTraceConvert:
    def test_reject_policy(self, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_text("slot,p_1\n0,4.00\n")
        doc = dict(BASE, source={"kind": "trace", "path": str(trace)})
        assert main(["trace-convert", "--config", write_config(tmp_path, doc),
                     "--input", str(trace)]) == 5

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_price_is_located(self, tmp_path, capsys, value):
        trace = tmp_path / "trace.csv"
        trace.write_text(f"slot,p_1\n0,1.00\n1,{value}\n")
        doc = dict(BASE, source={"kind": "trace", "path": str(trace)})
        assert main(["trace-convert", "--config", write_config(tmp_path, doc),
                     "--input", str(trace)]) == 5
        err = capsys.readouterr().err
        assert err.startswith(f"config: row 2: non-finite price {value!r}"), \
            err

    def test_missing_input_is_located(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        doc = dict(BASE, source={"kind": "trace", "path": missing})
        cfg = write_config(tmp_path, doc)
        assert main(["trace-convert", "--config", cfg,
                     "--input", missing]) == 5
        err = capsys.readouterr().err
        assert err.startswith("config: --input: cannot read "), err
        assert main(["trace-convert", "--config", cfg]) == 5
        err += capsys.readouterr().err
        assert "config: /source/path: cannot read " in err, err
        assert "Traceback" not in err

    def test_config_cap_policy_is_the_default(self, tmp_path, capsys):
        # The run reads the trace with the config's cap_policy, and so
        # does trace-convert unless --cap-policy says otherwise.
        trace = tmp_path / "trace.csv"
        trace.write_text("slot,p_1\n0,4.00\n")
        doc = dict(BASE, horizon=1, source={
            "kind": "trace", "path": str(trace), "cap_policy": "auto_expand"})
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", cfg]) == 0
        capsys.readouterr()
        assert main(["trace-convert", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["trace"]["effective_caps"] == ["4.00"]
        assert main(["trace-convert", "--config", cfg,
                     "--cap-policy", "reject"]) == 5
        assert "row 1: price 4.00 exceeds cap 2.00" in capsys.readouterr().err

    def test_auto_expand(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("slot,p_1\n0,4.00\n")
        doc = dict(BASE, source={"kind": "trace", "path": str(trace)})
        assert main(["trace-convert", "--config", write_config(tmp_path, doc),
                     "--input", str(trace), "--cap-policy", "auto_expand",
                     "--out", str(tmp_path / "out")]) == 0
        with open(tmp_path / "out" / "summary.json") as fh:
            out = json.load(fh)
        assert out["trace"]["effective_caps"] == ["4.00"]
        assert (tmp_path / "out" / "trace.csv").read_text() \
            == "slot,p_1\n0,4.00\n"


class TestCapacityCells:
    """LYAPTRADE_CAPACITY_CELLS caps the slot DP, the action enumeration
    and the lookahead DP alike."""

    def test_run_reports_size_and_cap(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LYAPTRADE_CAPACITY_CELLS", "5")
        doc = dict(BASE, market={
            "stocks": [{"mu_max": 2, "p_max": "2.00"},
                       {"mu_max": 2, "p_max": "2.00"}],
            "budget": {"mode": "money", "value": "3.00"}},
            source={"kind": "iid", "support": [["1.00", "1.00"]],
                    "probs": [1]})
        assert main(["run", "--config", write_config(tmp_path, doc)]) == 4
        err = capsys.readouterr().err
        sizes = [int(v) for v in re.findall(r"\d+", err)]
        assert 5 in sizes and any(v > 5 for v in sizes), err

    @pytest.mark.parametrize("budget, hint", [
        ({"mode": "money", "value": "3.00"}, True),
        ({"mode": "shares", "value": 3}, False)])
    def test_only_money_overflow_suggests_greedy(self, tmp_path, monkeypatch,
                                                 capsys, budget, hint):
        # Greedy relaxes a money budget only; it cannot take shares.
        monkeypatch.setenv("LYAPTRADE_CAPACITY_CELLS", "5")
        doc = dict(BASE, market={
            "stocks": [{"mu_max": 2, "p_max": "2.00"},
                       {"mu_max": 2, "p_max": "2.00"}], "budget": budget},
            source={"kind": "iid", "support": [["1.00", "1.00"]],
                    "probs": [1]})
        assert main(["run", "--config", write_config(tmp_path, doc)]) == 4
        err = capsys.readouterr().err
        assert "over the cap of 5" in err, err
        assert ("consider the greedy solver" in err) == hint, err

    def test_slack_budget_never_reaches_the_cap(self, tmp_path, monkeypatch,
                                                capsys):
        # The per-stock minimisers always fit a $100 budget, so no DP
        # runs and a cap of 5 cells is never consulted.
        monkeypatch.setenv("LYAPTRADE_CAPACITY_CELLS", "5")
        doc = dict(BASE, market={
            "stocks": [{"mu_max": 2, "p_max": "2.00"},
                       {"mu_max": 2, "p_max": "2.00"}],
            "budget": {"mode": "money", "value": "100.00"}},
            source={"kind": "iid", "support": [["1.00", "1.00"]],
                    "probs": [1]})
        assert main(["run", "--config", write_config(tmp_path, doc)]) == 0
        assert capsys.readouterr().err == ""

    def test_oracles_honour_the_variable(self, monkeypatch):
        spec = MarketSpec((StockSpec(0, 1, 200),))
        window = [(100,), (200,), (100,), (200,)]
        assert len(enumerate_actions(spec, (100,)).actions) == 4
        assert lookahead_psi(spec, window).psi_cents == 200
        monkeypatch.setenv("LYAPTRADE_CAPACITY_CELLS", "3")
        with pytest.raises(CapacityError, match="cap 3"):
            enumerate_actions(spec, (100,))
        monkeypatch.setenv("LYAPTRADE_CAPACITY_CELLS", "4")
        with pytest.raises(CapacityError, match="36 states.*cap of 4"):
            lookahead_psi(spec, window)

    def test_no_budget_lookahead_sums_its_stocks(self, monkeypatch):
        # Without a budget each stock is its own DP of 4 * 9 states; the
        # check covers their sum, 72, not the joint 4 * 9**2.
        spec = MarketSpec((StockSpec(0, 1, 200), StockSpec(1, 1, 200)))
        window = [(100, 100), (200, 200), (100, 100), (200, 200)]
        monkeypatch.setenv("LYAPTRADE_CAPACITY_CELLS", "72")
        assert lookahead_psi(spec, window).psi_cents == 400
        monkeypatch.setenv("LYAPTRADE_CAPACITY_CELLS", "71")
        with pytest.raises(CapacityError, match="72 states.*cap of 71"):
            lookahead_psi(spec, window)

    @pytest.mark.parametrize("value", ["1e6", "0"])
    def test_bad_value_is_a_config_error(self, tmp_path, monkeypatch, capsys,
                                         value):
        monkeypatch.setenv("LYAPTRADE_CAPACITY_CELLS", value)
        doc = dict(BASE, market={
            "stocks": [{"mu_max": 2, "p_max": "2.00"}],
            "budget": {"mode": "money", "value": "3.00"}})
        assert main(["run", "--config", write_config(tmp_path, doc)]) == 5
        err = capsys.readouterr().err
        assert "LYAPTRADE_CAPACITY_CELLS" in err and repr(value) in err, err


class TestThm3:
    def test_two_stock_money_budget_trace(self, tmp_path):
        rng = random.Random(5)
        rows = [f"{t},{rng.randint(0, 300) / 100:.2f},"
                f"{rng.randint(0, 200) / 100:.2f}" for t in range(400)]
        trace = tmp_path / "trace.csv"
        trace.write_text("slot,p_1,p_2\n" + "\n".join(rows) + "\n")
        doc = dict(BASE, horizon=400, market={
            "stocks": [{"mu_max": 2, "p_max": "3.00",
                        "buy_cost": {"kind": "fixed", "fee": "0.05"}},
                       {"mu_max": 2, "p_max": "2.00",
                        "sell_cost": {"kind": "linear", "rate": "0.02"}}],
            "budget": {"mode": "money", "value": "4.00"}},
            source={"kind": "trace", "path": str(trace)},
            verify=["dynamics", "queue_band", "thm3"], options={"window": 4})
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
        reports = read_summary(tmp_path)["reports"]
        assert set(reports) == {"dynamics", "queue_band", "thm3"}
        assert all(r["verdict"] == "pass" for r in reports.values()), reports

    @staticmethod
    def _short_trace_config(tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_text("slot,p_1\n0,1.00\n1,2.00\n2,1.00\n")
        return write_config(tmp_path, dict(
            BASE, horizon=3, source={"kind": "trace", "path": str(trace)},
            verify=["dynamics", "thm3"], options={"window": 4}))

    def test_run_shorter_than_a_window_is_located(self, tmp_path, capsys,
                                                  monkeypatch):
        # From the horizon, before any slot runs.
        def no_run(*args, **kwargs):
            raise AssertionError("a replication ran")
        monkeypatch.setattr(cli, "run_profit", no_run)
        monkeypatch.setattr(cli, "run_backtest", no_run)
        cfg = self._short_trace_config(tmp_path)
        assert main(["run", "--config", cfg]) == 5
        err = capsys.readouterr().err
        assert "/options/window" in err and "4 slots" in err \
            and "has 3" in err, err

    def test_verify_shorter_than_a_window_is_located(self, tmp_path, capsys):
        cfg = self._short_trace_config(tmp_path)
        doc = json.loads(open(cfg).read())
        doc["verify"] = ["dynamics"]
        doc["write_trajectories"] = True
        run_cfg = write_config(tmp_path, doc, name="run.json")
        assert main(["run", "--config", run_cfg,
                     "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        assert main(["verify", "--config", cfg, "--trajectory",
                     str(tmp_path / "out" / "trajectory_0.csv")]) == 5
        err = capsys.readouterr().err
        assert "/options/window" in err and "4 slots" in err \
            and "has 3" in err, err
