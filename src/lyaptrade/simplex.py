"""Self-contained dense two-phase simplex with Bland's rule.

Exact: each tableau row is a list of ints, the true rational row times
an unstated positive factor, divided by its gcd after every pivot.
Signs and ratios within a row do not depend on that factor, so the
pivots are those of a rational tableau.  Only the surface the oracles
need: non-negative variables, rows with <=, >= or = sense.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import NumericalError, StructuralError

LEQ, GEQ, EQ = "<=", ">=", "="


def _reduced(row):
    g = math.gcd(*row)
    return row if g < 2 else [v // g for v in row]


def _pivot(rows, basis, r, c):
    if rows[r][c] < 0:
        rows[r] = [-v for v in rows[r]]
    prow = rows[r]
    piv = prow[c]
    for i, row in enumerate(rows):
        if i != r and row[c] != 0:
            f = row[c]
            rows[i] = _reduced([piv * a - f * b for a, b in zip(row, prow)])
    if r < len(basis):
        basis[r] = c


def _minimize(rows, basis, m, width, max_iters=100000):
    """Minimize with the objective in rows[m]; Bland's rule throughout."""
    for _ in range(max_iters):
        obj = rows[m]
        col = next((j for j in range(width - 1) if obj[j] < 0), None)
        if col is None:
            return
        best_r, num, den = None, 0, 1  # best ratio num/den, den > 0
        for i in range(m):
            a = rows[i][col]
            if a > 0:
                diff = rows[i][-1] * den - num * a
                if best_r is None or diff < 0 or (
                        diff == 0 and basis[i] < basis[best_r]):
                    best_r, num, den = i, rows[i][-1], a
        if best_r is None:
            raise NumericalError("linear program is unbounded")
        _pivot(rows, basis, best_r, col)
    raise NumericalError("simplex iteration cap exceeded")


def solve_lp(objective, constraints, maximize=True):
    """Solve max/min objective . x subject to constraints, x >= 0.

    constraints is a list of (coeffs, sense, rhs).  Returns
    (optimal value, solution vector).  Raises NumericalError when
    infeasible or unbounded.
    """
    c = [Fraction(v) for v in objective]
    n = len(c)
    m = len(constraints)
    n_slack = sum(1 for _, s, _ in constraints if s != EQ)
    width = n + n_slack + m + 1  # structural + slack/surplus + artificial + rhs
    basis = list(range(n + n_slack, n + n_slack + m))
    tab = []
    slack_at = n
    for (coeffs, sense, b), art in zip(constraints, basis):
        if len(coeffs) != n:
            raise StructuralError("constraint width does not match objective")
        if sense not in (LEQ, GEQ, EQ):
            raise StructuralError(f"unknown sense {sense!r}")
        vals = [Fraction(v) for v in coeffs] + [Fraction(b)]
        scale = math.lcm(*(v.denominator for v in vals))
        if vals[-1] < 0:
            scale = -scale
        ints = [v.numerator * (scale // v.denominator) for v in vals]
        row = ints[:n] + [0] * (width - n - 1) + ints[-1:]
        if sense != EQ:
            row[slack_at] = scale if sense == LEQ else -scale
            slack_at += 1
        row[art] = abs(scale)
        tab.append(row)
    # Phase 1: minimize the sum of artificials, each row divided by its
    # factor (its artificial entry) to a common multiple of them.
    common = math.lcm(*(tab[i][basis[i]] for i in range(m)))
    phase1 = [0] * width
    for i in range(m):
        f = common // tab[i][basis[i]]
        phase1 = [p - f * v for p, v in zip(phase1, tab[i])]
    # Artificial columns are basic: zero reduced cost.
    for i in range(m):
        phase1[n + n_slack + i] = 0
    tab.append(_reduced(phase1))
    _minimize(tab, basis, m, width)
    if tab[m][-1] < 0:  # -(sum of artificials)
        raise NumericalError("linear program is infeasible")
    tab.pop()
    # Drive remaining artificials out of the basis, then drop their columns.
    for i in range(m):
        if basis[i] >= n + n_slack:
            col = next((j for j in range(n + n_slack) if tab[i][j] != 0), None)
            if col is not None:
                _pivot(tab, basis, i, col)
    keep = n + n_slack
    for i in range(m):
        tab[i] = tab[i][:keep] + [tab[i][-1]]
    width = keep + 1
    # Phase 2: the objective row, scaled to integers, with each basic
    # column eliminated by its row (whose factor is its basic entry).
    sign = -1 if maximize else 1
    scale = math.lcm(*(v.denominator for v in c))
    obj = [sign * v.numerator * (scale // v.denominator) for v in c] \
        + [0] * (width - n)
    for i in range(m):
        if basis[i] < keep and obj[basis[i]] != 0:
            f, d = obj[basis[i]], tab[i][basis[i]]
            obj = _reduced([d * a - f * b for a, b in zip(obj, tab[i])])
    tab.append(obj)
    _minimize(tab, basis, m, width)
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Fraction(tab[i][-1], tab[i][basis[i]])
    value = sum(ci * xi for ci, xi in zip(c, x))
    return value, x
