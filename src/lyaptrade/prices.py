"""Price vector sources: finite-support i.i.d. sampling, Markov-modulated
chains, and CSV trace replay.

All randomness flows through counter-based Philox generators keyed by
(seed, stream), so replications split deterministically across workers
and identical seeds reproduce identical sequences bit-for-bit.
"""

from __future__ import annotations

import csv
from bisect import bisect_right
from decimal import Decimal, InvalidOperation
from itertools import accumulate, islice
from typing import TYPE_CHECKING

from ._record import Record
from .errors import ConfigError, ParseError, StructuralError
from .market import MarketSpec
from .money import _as_fraction, cents_to_str

if TYPE_CHECKING:
    import numpy as np


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator; distinct streams are independent."""
    import numpy as np
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed), int(stream)])))


class PriceDistribution(Record, frozen=True):
    """Finite-support distribution over price vectors (cents).

    Probabilities are kept as exact Fractions (normalized on load) so the
    policy LP downstream can run in rational arithmetic.
    """

    support: tuple          # tuple of per-stock cents tuples
    probs: tuple            # matching Fractions, summing to 1

    def __post_init__(self):
        support = tuple(tuple(int(p) for p in vec) for vec in self.support)
        if not support:
            raise ConfigError("empty price support")
        if len({len(v) for v in support}) != 1:
            raise ConfigError("support vectors differ in length")
        probs = tuple(_as_fraction(p) for p in self.probs)
        if len(probs) != len(support):
            raise ConfigError("probability list does not match support")
        if any(p < 0 for p in probs):
            raise ConfigError("negative probability")
        total = sum(probs)
        if total <= 0:
            raise ConfigError("probabilities sum to zero")
        if total != 1:
            probs = tuple(p / total for p in probs)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)

    def check_against(self, spec: MarketSpec):
        for vec in self.support:
            spec.check_prices(vec)

    def float_probs(self) -> np.ndarray:
        import numpy as np
        return np.array([float(p) for p in self.probs])


class MarkovPriceModel(Record, frozen=True):
    """Irreducible finite-state chain emitting one price vector per state;
    floats are read through their repr, so 0.4 is exactly 2/5."""

    states: tuple           # tuple of per-stock cents tuples, indexed by state id
    transition: tuple       # row-stochastic matrix as tuple of tuples of Fractions

    def __post_init__(self):
        states = tuple(tuple(int(p) for p in vec) for vec in self.states)
        matrix = tuple(tuple(_as_fraction(x) for x in row)
                       for row in self.transition)
        k = len(states)
        if k == 0:
            raise ConfigError("empty state list")
        if len(matrix) != k or any(len(row) != k for row in matrix):
            raise ConfigError("transition matrix shape does not match states")
        for i, row in enumerate(matrix):
            if any(x < 0 for x in row):
                raise ConfigError(f"negative transition probability in row {i}")
            if sum(row) != 1:
                raise ConfigError(f"transition row {i} sums to {sum(row)}, not 1")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "transition", matrix)
        if not self._irreducible():
            raise ConfigError("transition matrix is not irreducible")

    def _irreducible(self) -> bool:
        k = len(self.states)
        adj = [[j for j, x in enumerate(row) if x > 0] for row in self.transition]
        radj = [[] for _ in range(k)]
        for i, outs in enumerate(adj):
            for j in outs:
                radj[j].append(i)

        def reach(start, edges):
            seen = {start}
            stack = [start]
            while stack:
                for j in edges[stack.pop()]:
                    if j not in seen:
                        seen.add(j)
                        stack.append(j)
            return seen

        return len(reach(0, adj)) == k and len(reach(0, radj)) == k

    @property
    def n_states(self) -> int:
        return len(self.states)

    def check_against(self, spec: MarketSpec):
        for vec in self.states:
            spec.check_prices(vec)


class PriceTrace(Record, frozen=True):
    """A replayable finite price sequence with provenance."""

    sequence: tuple
    source: str = ""

    def __post_init__(self):
        seq = tuple(tuple(int(p) for p in vec) for vec in self.sequence)
        if seq and len({len(v) for v in seq}) != 1:
            raise ConfigError("trace rows differ in width")
        object.__setattr__(self, "sequence", seq)

    def __len__(self):
        return len(self.sequence)

    def check_against(self, spec: MarketSpec, horizon: int):
        for vec in islice(self.sequence, horizon):
            spec.check_prices(vec)


def sample_iid_indices(dist: PriceDistribution, horizon: int,
                       rng: np.random.Generator) -> list:
    """Draw a whole horizon of support indices at once (hot path)."""
    return rng.choice(len(dist.support), size=horizon, p=dist.float_probs()).tolist()


def markov_state_sequence(model: MarkovPriceModel, start: int, horizon: int,
                          rng: np.random.Generator) -> list:
    """States visited over a horizon, starting from (and including) start."""
    if not 0 <= start < model.n_states:
        raise StructuralError(f"unknown state id {start}")
    # Float CDFs summed left to right, as np.cumsum does.  A draw at or
    # past a row's last entry (a float sum may end below 1.0) goes to the
    # last state, so that entry is left out of the search.
    cdfs = [list(accumulate(float(x) for x in row))[:-1]
            for row in model.transition]
    draws = rng.random(horizon)
    out = []
    state = start
    # The draws become Python floats 2**16 at a time, not all at once.
    for lo in range(0, horizon, 2 ** 16):
        for u in draws[lo:lo + 2 ** 16].tolist():
            out.append(state)
            state = bisect_right(cdfs[state], u)
    return out


def stationary_distribution(model: MarkovPriceModel) -> PriceDistribution:
    """Unique stationary distribution, solved exactly from pi (P - I) = 0,
    sum(pi) = 1 by the rational simplex; states sharing a price merged."""
    from .simplex import EQ, solve_lp

    k = model.n_states
    P = model.transition
    balance = [([P[i][j] - (i == j) for i in range(k)], EQ, 0)
               for j in range(k)]
    _, pi = solve_lp([0] * k, balance + [([1] * k, EQ, 1)])
    assert all(sum(pi[i] * P[i][j] for i in range(k)) == pi[j]
               for j in range(k)), "stationary solve is not a fixed point"
    merged: dict = {}
    for vec, prob in zip(model.states, pi):
        merged[vec] = merged.get(vec, 0) + prob
    return PriceDistribution(tuple(merged), tuple(merged.values()))


def _parse_price_cell(cell: str, row: int) -> int:
    try:
        dec = Decimal(cell)
    except InvalidOperation as exc:
        raise ParseError(f"bad price {cell!r}", row=row) from exc
    if not dec.is_finite():
        raise ParseError(f"non-finite price {cell!r}", row=row)
    if dec < 0:
        raise ParseError(f"negative price {cell!r}", row=row)
    cents = dec * 100
    if cents != cents.to_integral_value():
        raise ParseError(f"sub-cent price {cell!r}", row=row)
    return int(cents)


def _cap_error(price: int, cap: int, stock: int, row: int) -> ParseError:
    """The error of a price above its stock's cap, in money strings."""
    return ParseError(f"price {cents_to_str(price)} exceeds cap "
                      f"{cents_to_str(cap)} for stock {stock}", row=row)


def _csv_rows(stream, header, what):
    """Yield (row number, row) for each data row of a CSV whose header is
    `header`, checking that row t (numbered from 1) has one cell per
    column and holds slot t - 1."""
    reader = csv.reader(stream)
    try:
        got = next(reader)
    except StopIteration:
        raise ParseError(f"empty {what} file") from None
    if [h.strip() for h in got] != header:
        raise ParseError(f"bad header {got!r}, expected {header}")
    for rownum, row in enumerate(reader, start=1):
        if len(row) != len(header):
            raise ParseError(f"expected {len(header)} columns, got {len(row)}",
                             row=rownum)
        try:
            slot = int(row[0])
        except ValueError as exc:
            raise ParseError(f"bad slot {row[0]!r}", row=rownum) from exc
        if slot != rownum - 1:
            raise ParseError(f"slot {slot} out of order (expected {rownum - 1})",
                             row=rownum)
        yield rownum, row


def load_trace(stream, spec: MarketSpec, cap_policy: str = "reject"):
    """Read a price trace CSV (header slot,p_1,...,p_N).

    Under "reject", any price above a stock's cap aborts with the row
    number.  Under "auto_expand", caps are raised to the observed maxima
    and the effective caps are returned alongside the trace.

    Returns (PriceTrace, per-stock effective caps in cents).
    """
    if cap_policy not in ("reject", "auto_expand"):
        raise ConfigError(f"unknown cap policy {cap_policy!r}")
    header = ["slot"] + [f"p_{i + 1}" for i in range(spec.n_stocks)]
    rows = []
    caps = [s.p_max for s in spec.stocks]
    for rownum, row in _csv_rows(stream, header, "trace"):
        prices = tuple(_parse_price_cell(c, rownum) for c in row[1:])
        for i, (p, s) in enumerate(zip(prices, spec.stocks)):
            if p > caps[i]:
                if cap_policy == "reject":
                    raise _cap_error(p, s.p_max, i, rownum)
                caps[i] = p
        rows.append(prices)
    return PriceTrace(tuple(rows), source=getattr(stream, "name", "<stream>")), tuple(caps)


def save_trace(trace: PriceTrace, stream):
    """Write a trace in the bit-exact CSV format load_trace reads."""
    if not trace.sequence:
        raise StructuralError("refusing to write an empty trace")
    n = len(trace.sequence[0])
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["slot"] + [f"p_{i + 1}" for i in range(n)])
    for slot, vec in enumerate(trace.sequence):
        writer.writerow([slot] + [cents_to_str(p) for p in vec])
