"""Self-contained dense two-phase simplex with Bland's rule.

Runs in exact rational arithmetic (Fractions), which is what the policy
oracle needs.  Only the surface the oracles need: non-negative
variables, rows with <=, >= or = sense.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NumericalError, StructuralError

LEQ, GEQ, EQ = "<=", ">=", "="


def _pivot(rows, basis, r, c):
    piv = rows[r][c]
    rows[r] = [v / piv for v in rows[r]]
    for i, row in enumerate(rows):
        if i != r and row[c] != 0:
            f = row[c]
            rows[i] = [a - f * b for a, b in zip(row, rows[r])]
    if r < len(basis):
        basis[r] = c


def _minimize(rows, basis, m, width, max_iters=100000):
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
    _minimize(tab, basis, m, width)
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][-1]
    value = sum(ci * xi for ci, xi in zip(c, x))
    return value, x
