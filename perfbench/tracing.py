"""Per-layer spans and counters for one in-process `lyaptrade run`.

The tracer wraps public functions of each module where the CLI and the
trader look them up, times every call as a span (name, start, end,
parent) kept in memory, and restores the originals on exit.  Nothing
under src/ is edited.  A wrap point that no longer exists is reported as
missing, so its metrics read null rather than zero.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import inspect
from collections import Counter
from time import perf_counter_ns

# (span, module, class or None, attribute, counters).  A counter is
# (name, parameter or "return", measure): it adds measure(value) per call.
WRAPS = (
    ("cli.run", "lyaptrade.cli", None, "cmd_run", ()),
    ("config.load", "lyaptrade.cli", None, "load_config", ()),
    ("config.resolve", "lyaptrade.config", "SourceConfig", "resolve", ()),
    ("prices.load_trace", "lyaptrade.config", None, "load_trace", ()),
    ("prices.iid_sample", "lyaptrade.trader", None, "sample_iid_indices", ()),
    ("prices.markov_sample", "lyaptrade.trader", None,
     "markov_state_sequence", (("prices.markov_draws", "horizon", int),)),
    ("prices.check", "lyaptrade.prices", "PriceDistribution",
     "check_against", ()),
    ("prices.check", "lyaptrade.prices", "MarkovPriceModel",
     "check_against", ()),
    ("prices.check", "lyaptrade.prices", "PriceTrace", "check_against", ()),
    ("prices.stationary", "lyaptrade.cli", None, "stationary_distribution",
     ()),
    ("trader.backtest", "lyaptrade.cli", None, "run_backtest",
     (("trader.slots", "horizon", int),)),
    ("trader.run_profit", "lyaptrade.cli", None, "run_profit",
     (("trader.slots", "horizon", int),)),
    ("trader.sell", "lyaptrade.trader", "SlotSolver", "sell", ()),
    ("trader.buy", "lyaptrade.trader", "SlotSolver", "buy", ()),
    ("trader.check_dynamics", "lyaptrade.trader", "Trajectory",
     "check_dynamics", ()),
    ("analysis.frame_drift", "lyaptrade.cli", None, "check_frame_drift", ()),
    ("analysis.queue_band", "lyaptrade.cli", None, "verify_queue_band", ()),
    ("analysis.slot_optimality", "lyaptrade.cli", None,
     "verify_slot_optimality", ()),
    ("analysis.thm2", "lyaptrade.cli", None, "verify_thm2_profit", ()),
    ("analysis.thm3", "lyaptrade.cli", None, "verify_thm3", ()),
    ("analysis.memory_epsilon", "lyaptrade.cli", None,
     "measure_memory_epsilon", ()),
    ("oracles.brute_force", "lyaptrade.cli", None, "brute_force_slot_min",
     ()),
    ("oracles.enumerate_actions", "lyaptrade.oracles", None,
     "enumerate_actions",
     (("oracles.actions_enumerated", "return", lambda r: len(r.actions)),)),
    ("oracles.lookahead", "lyaptrade.cli", None, "lookahead_psi", ()),
    ("oracles.phi_opt", "lyaptrade.cli", None, "solve_phi_opt", ()),
    ("oracles.rebalance", "lyaptrade.cli", None, "drift_rebalance", ()),
    ("simplex.solve_lp", "lyaptrade.simplex", None, "solve_lp",
     (("simplex.lp_cols", "objective", len),
      ("simplex.lp_rows", "constraints", len))),
)


class Tracer:
    def __init__(self, wraps=WRAPS):
        self.wraps = wraps
        self.spans = []        # (name, start_ns, end_ns, parent index)
        self.counts = Counter()
        self.missing = set()   # spans with at least one absent wrap point
        self._stack = []

    def _wrap(self, span, fn, counters):
        spans, stack, counts = self.spans, self._stack, self.counts
        sig = inspect.signature(fn) if counters else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (span, start, perf_counter_ns(), parent)
                stack.pop()
            if counters:
                bound = sig.bind(*args, **kwargs).arguments
                for name, param, measure in counters:
                    counts[name] += measure(
                        result if param == "return" else bound[param])
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every point in self.wraps for the duration of the block."""
        saved = []
        try:
            for span, module, cls, attr, counters in self.wraps:
                owner = importlib.import_module(module)
                if cls is not None:
                    owner = getattr(owner, cls, None)
                fn = vars(owner).get(attr) if owner is not None else None
                params = inspect.signature(fn).parameters if callable(fn) \
                    else {}
                if not callable(fn) or any(p != "return" and p not in params
                                           for _, p, _ in counters):
                    self.missing.add(span)
                    continue
                setattr(owner, attr, self._wrap(span, fn, counters))
                saved.append((owner, attr, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def stats(self) -> "SpanStats":
        return SpanStats(self.spans, self.counts)

    def write_spans(self, path):
        """One CSV row per span, times in ns from the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "parent", "name", "start_ns", "end_ns"])
            for i, (name, start, end, parent) in enumerate(self.spans):
                writer.writerow([i, parent, name, start - t0, end - t0])


class SpanStats:
    """Per-span-name call count, inclusive time and self time, where self
    time is a span's duration minus the time its child spans cover."""

    def __init__(self, spans, counts):
        covered = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        self.calls, self.total_ns, self.self_ns = Counter(), Counter(), Counter()
        for i, (name, start, end, _) in enumerate(spans):
            self.calls[name] += 1
            self.total_ns[name] += end - start
            self.self_ns[name] += end - start - covered[i]
        self.counts = Counter(counts)

    def by_layer(self) -> dict:
        """{layer: {span: {calls, total_s, self_s}}, plus the counters}."""
        out = {}
        for name in sorted(self.calls):
            layer = name.split(".")[0]
            out.setdefault(layer, {})[name] = {
                "calls": self.calls[name],
                "total_s": self.total_ns[name] / 1e9,
                "self_s": self.self_ns[name] / 1e9}
        out["counters"] = dict(sorted(self.counts.items()))
        return out


def _time(span, self_time=False):
    name = span + ("_self_s" if self_time else "_s")
    table = "self_ns" if self_time else "total_ns"
    return name, "s", (span,), lambda st: getattr(st, table)[span] / 1e9


def _calls(span, name):
    return name, "count", (span,), lambda st: st.calls[span]


def _counter(name, *spans):
    return name, "count", spans, lambda st: st.counts[name]


def _memo_hit_ratio(st):
    slots = st.counts["trader.slots"]
    return 1 - st.calls["trader.sell"] / slots if slots else 0.0


# (metric, unit, spans it needs, value from SpanStats)
PER_LAYER = (
    _time("prices.markov_sample"),
    _counter("prices.markov_draws", "prices.markov_sample"),
    _time("prices.iid_sample"),
    _time("prices.check"),
    _time("prices.stationary"),
    _time("prices.load_trace"),
    _time("config.load"),
    _time("config.resolve"),
    _time("trader.backtest"),
    _time("trader.backtest", self_time=True),
    _time("trader.run_profit"),
    _time("trader.run_profit", self_time=True),
    _time("trader.sell"),
    _time("trader.buy"),
    _time("trader.check_dynamics"),
    _counter("trader.slots", "trader.backtest", "trader.run_profit"),
    _calls("trader.sell", "trader.solver_calls"),
    ("trader.memo_hit_ratio", "ratio",
     ("trader.sell", "trader.backtest", "trader.run_profit"),
     _memo_hit_ratio),
    _time("analysis.frame_drift"),
    _calls("analysis.frame_drift", "analysis.frame_drift_calls"),
    _time("analysis.queue_band"),
    _time("analysis.slot_optimality"),
    _time("analysis.thm2"),
    _time("analysis.thm3"),
    _time("analysis.memory_epsilon"),
    _time("oracles.brute_force"),
    _calls("oracles.brute_force", "oracles.brute_force_calls"),
    _time("oracles.enumerate_actions"),
    _counter("oracles.actions_enumerated", "oracles.enumerate_actions"),
    _time("oracles.lookahead"),
    _calls("oracles.lookahead", "oracles.lookahead_calls"),
    _time("oracles.phi_opt"),
    _time("oracles.rebalance"),
    _time("simplex.solve_lp"),
    _counter("simplex.lp_cols", "simplex.solve_lp"),
    _counter("simplex.lp_rows", "simplex.solve_lp"),
    _time("cli.run", self_time=True),
)


def layer_metrics(tracer: Tracer) -> dict:
    """{metric: value}, with None for a metric whose wrap point is gone."""
    st = tracer.stats()
    return {name: None if tracer.missing.intersection(needs) else value(st)
            for name, _, needs, value in PER_LAYER}
