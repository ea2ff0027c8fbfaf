"""Exact two-phase simplex."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from lyaptrade.errors import NumericalError, StructuralError
from lyaptrade.simplex import EQ, GEQ, LEQ, solve_lp


def test_basic_max():
    value, x = solve_lp([3, 2], [([1, 1], LEQ, 4), ([1, 3], LEQ, 6)])
    assert value == 12 and x == [4, 0]


def test_exact_fractions():
    value, x = solve_lp([1, 1], [([2, 1], LEQ, Fraction(1, 3)),
                                 ([1, 3], LEQ, Fraction(1, 2))])
    # optimum at the constraint intersection x = 1/10, y = 2/15
    assert value == Fraction(7, 30)
    assert all(isinstance(v, Fraction) for v in x)


def test_minimize_with_geq():
    value, x = solve_lp([2, 3], [([1, 1], GEQ, 10), ([1, 0], LEQ, 8)],
                        maximize=False)
    assert value == 22 and x == [8, 2]


def test_equality_rows():
    value, x = solve_lp([1, 2], [([1, 1], EQ, 5), ([0, 1], LEQ, 3)])
    assert value == 8 and x == [2, 3]


def test_infeasible():
    with pytest.raises(NumericalError):
        solve_lp([1], [([1], GEQ, 2), ([1], LEQ, 1)])


def test_unbounded():
    with pytest.raises(NumericalError):
        solve_lp([1], [([-1], LEQ, 1)])


def test_degenerate_does_not_cycle():
    # classic degenerate instance; Bland's rule must terminate
    value, _ = solve_lp(
        [Fraction(3, 4), -150, Fraction(1, 50), -6],
        [([Fraction(1, 4), -60, Fraction(-1, 25), 9], LEQ, 0),
         ([Fraction(1, 2), -90, Fraction(-1, 50), 3], LEQ, 0),
         ([0, 0, 1, 0], LEQ, 1)])
    assert value == Fraction(1, 20)


def test_width_mismatch():
    with pytest.raises(StructuralError):
        solve_lp([1, 2], [([1], LEQ, 1)])


def test_negative_rhs_normalized():
    value, x = solve_lp([1], [([-1], LEQ, -2), ([1], LEQ, 5)])
    assert value == 5 and x == [5]


# The rational tableau that the integer one replaced, kept verbatim as
# the reference: same Bland entering rule, ratio tie-break and artificial
# drive-out, so both must make the same pivots and return the same x.

def _ref_pivot(rows, basis, r, c):
    piv = rows[r][c]
    rows[r] = [v / piv for v in rows[r]]
    for i, row in enumerate(rows):
        if i != r and row[c] != 0:
            f = row[c]
            rows[i] = [a - f * b for a, b in zip(row, rows[r])]
    if r < len(basis):
        basis[r] = c


def _ref_minimize(rows, basis, m, width, max_iters=100000):
    """Minimize with the objective in rows[m]; Bland's rule throughout."""
    for _ in range(max_iters):
        obj = rows[m]
        col = next((j for j in range(width - 1) if obj[j] < 0), None)
        if col is None:
            return
        best_r, best_ratio = None, None
        for i in range(m):
            a = rows[i][col]
            if a > 0:
                ratio = rows[i][-1] / a
                if best_ratio is None or ratio < best_ratio or (
                        ratio == best_ratio and basis[i] < basis[best_r]):
                    best_r, best_ratio = i, ratio
        if best_r is None:
            raise NumericalError("linear program is unbounded")
        _ref_pivot(rows, basis, best_r, col)
    raise NumericalError("simplex iteration cap exceeded")


def reference_solve_lp(objective, constraints, maximize=True):
    c = [Fraction(v) for v in objective]
    n = len(c)
    rows = []
    senses = []
    rhs = []
    for coeffs, sense, b in constraints:
        if len(coeffs) != n:
            raise StructuralError("constraint width does not match objective")
        if sense not in (LEQ, GEQ, EQ):
            raise StructuralError(f"unknown sense {sense!r}")
        rows.append([Fraction(v) for v in coeffs])
        senses.append(sense)
        rhs.append(Fraction(b))
    m = len(rows)
    n_slack = sum(1 for s in senses if s != EQ)
    width = n + n_slack + m + 1  # structural + slack/surplus + artificial + rhs
    tab = []
    slack_at = n
    for i in range(m):
        row = [Fraction(0)] * width
        row[:n] = rows[i]
        row[-1] = rhs[i]
        if senses[i] == LEQ:
            row[slack_at] = Fraction(1)
            slack_at += 1
        elif senses[i] == GEQ:
            row[slack_at] = Fraction(-1)
            slack_at += 1
        if row[-1] < 0:
            row = [-v for v in row]
        tab.append(row)
    basis = []
    for i in range(m):
        art = n + n_slack + i
        tab[i][art] = Fraction(1)
        basis.append(art)
    # Phase 1: minimize the sum of artificials.
    phase1 = [Fraction(0)] * width
    for i in range(m):
        for j in range(width):
            phase1[j] -= tab[i][j]
    # Artificial columns are basic: zero reduced cost.
    for i in range(m):
        phase1[n + n_slack + i] = Fraction(0)
    tab.append(phase1)
    _ref_minimize(tab, basis, m, width)
    if tab[m][-1] < 0:  # -(sum of artificials)
        raise NumericalError("linear program is infeasible")
    tab.pop()
    # Drive remaining artificials out of the basis, then drop their columns.
    for i in range(m):
        if basis[i] >= n + n_slack:
            col = next((j for j in range(n + n_slack) if tab[i][j] != 0), None)
            if col is not None:
                _ref_pivot(tab, basis, i, col)
    keep = n + n_slack
    for i in range(m):
        tab[i] = tab[i][:keep] + [tab[i][-1]]
    width = keep + 1
    # Phase 2.
    sign = -1 if maximize else 1
    obj = [Fraction(0)] * width
    for j in range(n):
        obj[j] = sign * c[j]
    for i in range(m):
        if basis[i] < keep and obj[basis[i]] != 0:
            f = obj[basis[i]]
            obj = [a - f * b for a, b in zip(obj, tab[i])]
    tab.append(obj)
    _ref_minimize(tab, basis, m, width)
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][-1]
    value = sum(ci * xi for ci, xi in zip(c, x))
    return value, x


def _outcome(solver, lp):
    try:
        return solver(*lp)
    except NumericalError as exc:
        return str(exc)


def _random_lp(rng):
    """Small LP with integer or fractional entries, zeros common (so ties
    and degenerate pivots occur), any mix of senses and rhs signs."""
    def entry(lo, hi):
        v = rng.randint(lo, hi)
        return Fraction(v, rng.choice((1, 1, 2, 3, 7))) if v else 0

    n = rng.randint(1, 5)
    constraints = [([entry(-4, 6) for _ in range(n)],
                    rng.choice((LEQ, LEQ, GEQ, EQ)), entry(-5, 8))
                   for _ in range(rng.randint(1, 4))]
    return [entry(-5, 6) for _ in range(n)], constraints, rng.random() < 0.6


BEALE = ([Fraction(3, 4), -150, Fraction(1, 50), -6],
         [([Fraction(1, 4), -60, Fraction(-1, 25), 9], LEQ, 0),
          ([Fraction(1, 2), -90, Fraction(-1, 50), 3], LEQ, 0),
          ([0, 0, 1, 0], LEQ, 1)],
         True)


def test_integer_tableau_matches_rational_reference():
    rng = random.Random(0x51A7)
    seen = Counter()
    for lp in [BEALE] + [_random_lp(rng) for _ in range(2400)]:
        ours, ref = _outcome(solve_lp, lp), _outcome(reference_solve_lp, lp)
        assert ours == ref, lp
        seen[ref if isinstance(ref, str) else "optimal"] += 1
        seen.update(s for _, s, _ in lp[1])
        seen["negative rhs"] += any(b < 0 for _, _, b in lp[1])
    assert seen["optimal"] >= 300, seen
    assert seen["linear program is infeasible"] >= 300, seen
    assert seen["linear program is unbounded"] >= 100, seen
    assert min(seen[LEQ], seen[GEQ], seen[EQ], seen["negative rhs"]) >= 300
