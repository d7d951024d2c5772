"""Exact linear programming by the one-phase simplex method.

Problems are integer programs in the form: maximize c.x subject to
A.x <= b and x >= 0, with b >= 0.  The origin is then a vertex and the
slack columns are a feasible first basis, so no first phase is needed.
Bland's rule (always the lowest eligible index) makes the run
deterministic and cycle-free.

The tableau is kept fraction-free: every row is the current Gauss-Jordan
row scaled by one shared positive integer d, and a pivot on entry (p, q)
maps row r to (A[p][q] * row_r - A[r][q] * row_p) / d with exact integer
division, the pivot row staying as it is and d becoming A[p][q].  Entries
remain minors of the original integer data, so they cannot blow up with
the pivot count, and no gcd reduction is ever needed in the loop.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction


class RationalLP:
    """maximize objective . x  subject to the constraints and x >= 0.

    Each constraint is a pair (coefficients, rhs) standing for
    coefficients . x <= rhs, with int data and rhs >= 0.
    """

    def __init__(self, n_vars: int, objective: list):
        self.n_vars = n_vars
        self.objective = objective
        self.constraints = []

    def add(self, coefficients, rhs) -> None:
        coefficients = list(coefficients)
        if len(coefficients) != self.n_vars:
            raise ValueError("constraint length does not match variable count")
        if any(type(a) is not int for a in coefficients + [rhs]):
            raise ValueError("constraint data must be ints")
        if rhs < 0:
            raise ValueError(f"negative right-hand side {rhs}")
        self.constraints.append((coefficients, rhs))


class LPSolution(namedtuple("LPSolution", "status value vertex", defaults=(None, None))):
    """status is "optimal" or "unbounded"; an optimal solution carries its
    value and one optimal vertex."""

    __slots__ = ()


def solve_max(lp: RationalLP) -> LPSolution:
    """Solve the LP exactly from the slack basis.  Returns status "optimal"
    with the value and one optimal vertex, or "unbounded".

    Bland: the entering column is the lowest index with negative objective
    entry; the leaving row minimizes the ratio, ties to the lowest basic
    variable.
    """
    n, m = lp.n_vars, len(lp.constraints)
    if len(lp.objective) != n or any(type(c) is not int for c in lp.objective):
        raise ValueError("objective must be n_vars ints")
    rows = []
    for i, (coeffs, rhs) in enumerate(lp.constraints):
        row = coeffs + [0] * (m + 1)
        row[n + i], row[-1] = 1, rhs
        rows.append(row)
    obj = [-c for c in lp.objective] + [0] * (m + 1)
    basis = list(range(n, n + m))
    d = 1
    while True:
        q = next((j for j, a in enumerate(obj[:-1]) if a < 0), None)
        if q is None:
            break
        p = None
        for i, row in enumerate(rows):
            if row[q] <= 0:
                continue
            if p is None:
                p = i
                continue
            lhs = rows[p][-1] * row[q]
            rhs = row[-1] * rows[p][q]
            if rhs < lhs or (rhs == lhs and basis[i] < basis[p]):
                p = i
        if p is None:
            return LPSolution("unbounded")
        piv, prow = rows[p][q], rows[p]
        for row in rows + [obj]:
            if row is not prow:
                arq = row[q]
                row[:] = [(piv * a - arq * b) // d for a, b in zip(row, prow)]
        basis[p], d = q, piv

    x = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = Fraction(rows[i][-1], d)
    return LPSolution("optimal", Fraction(obj[-1], d), tuple(x))
