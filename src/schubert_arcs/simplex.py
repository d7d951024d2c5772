"""Exact rational linear programming by the two-phase simplex method.

Problems are stated over Fractions and solved exactly: maximize c.x subject
to linear constraints (<=, =, >=) and x >= 0.  Bland's rule (always the
lowest eligible index) makes the run deterministic and cycle-free.

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
from math import lcm


class RationalLP:
    """maximize objective . x  subject to the constraints and x >= 0.

    Each constraint is (coefficients, relation, rhs) with relation one of
    "<=", ">=", "=".  Coefficients and rhs may be ints or Fractions.
    """

    def __init__(self, n_vars: int, objective: list, constraints: list | None = None):
        self.n_vars = n_vars
        self.objective = objective
        self.constraints = [] if constraints is None else constraints

    def add(self, coefficients, relation: str, rhs) -> None:
        if relation not in ("<=", ">=", "="):
            raise ValueError(f"unknown relation {relation!r}")
        if len(coefficients) != self.n_vars:
            raise ValueError("constraint length does not match variable count")
        self.constraints.append((list(coefficients), relation, rhs))


class LPSolution(namedtuple("LPSolution", "status value vertex", defaults=(None, None))):
    """status is "optimal", "infeasible" or "unbounded"; an optimal
    solution carries its value and one optimal vertex."""

    __slots__ = ()


def _scale_to_integers(coefficients, rhs):
    fracs = [Fraction(c) for c in coefficients] + [Fraction(rhs)]
    m = lcm(*(f.denominator for f in fracs)) if fracs else 1
    ints = [int(f * m) for f in fracs]
    return ints[:-1], ints[-1]


class _Tableau:
    def __init__(self, rows, basis, n_cols):
        self.rows = rows  # each: list of n_cols coefficients + rhs appended
        self.basis = basis  # basis[i] = column index basic in row i
        self.n_cols = n_cols
        self.obj = [0] * (n_cols + 1)
        self.d = 1

    def pivot(self, p: int, q: int) -> None:
        d, piv = self.d, self.rows[p][q]
        prow = self.rows[p]
        for r, row in enumerate(self.rows):
            if r != p:
                arq = row[q]
                row[:] = [(piv * a - arq * b) // d for a, b in zip(row, prow)]
        oq = self.obj[q]
        self.obj[:] = [(piv * a - oq * b) // d for a, b in zip(self.obj, prow)]
        self.basis[p] = q
        self.d = piv

    def run(self, allowed) -> str:
        """Pivot until optimal or unbounded.  Bland: the entering column is
        the lowest allowed index with negative objective entry; the leaving
        row minimizes the ratio, ties to the lowest basic variable."""
        while True:
            q = next(
                (j for j in allowed if self.obj[j] < 0),
                None,
            )
            if q is None:
                return "optimal"
            p = None
            for i, row in enumerate(self.rows):
                if row[q] <= 0:
                    continue
                if p is None:
                    p = i
                    continue
                lhs = self.rows[p][-1] * row[q]
                rhs = row[-1] * self.rows[p][q]
                if rhs < lhs or (rhs == lhs and self.basis[i] < self.basis[p]):
                    p = i
            if p is None:
                return "unbounded"
            self.pivot(p, q)


def solve_max(lp: RationalLP) -> LPSolution:
    """Solve the LP exactly.  Returns status "optimal" with the value and
    one optimal vertex, or "infeasible", or "unbounded"."""
    if len(lp.objective) != lp.n_vars:
        raise ValueError("objective length does not match variable count")
    n = lp.n_vars
    slack_count = sum(1 for _, rel, _ in lp.constraints if rel != "=")
    n_cols = n + slack_count + len(lp.constraints)
    art_start = n + slack_count

    rows, basis = [], []
    slack_at = n
    for idx, (coeffs, rel, rhs) in enumerate(lp.constraints):
        ints, b = _scale_to_integers(coeffs, rhs)
        if rel == ">=":
            ints, b, rel = [-c for c in ints], -b, "<="
        if b < 0:
            ints, b = [-c for c in ints], -b
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        row = ints + [0] * (n_cols - n) + [b]
        if rel == "<=":
            row[slack_at] = 1
            basis.append(slack_at)
            slack_at += 1
        elif rel == ">=":
            row[slack_at] = -1
            slack_at += 1
            row[art_start + idx] = 1
            basis.append(art_start + idx)
        else:
            row[art_start + idx] = 1
            basis.append(art_start + idx)
        rows.append(row)

    t = _Tableau(rows, basis, n_cols)
    artificial = set(range(art_start, n_cols))
    structural = [j for j in range(n_cols) if j not in artificial]

    if any(b in artificial for b in t.basis):
        # phase 1: maximize minus the sum of artificials, starting objective
        # row already reduced over the artificial basis
        t.obj = [0] * (n_cols + 1)
        for j in artificial:
            t.obj[j] = 1
        for i, b in enumerate(t.basis):
            if b in artificial:
                t.obj = [a - r for a, r in zip(t.obj, t.rows[i])]
        status = t.run(structural)
        assert status == "optimal", "phase 1 is bounded by construction"
        if t.obj[-1] != 0:
            return LPSolution("infeasible")
        _expel_artificials(t, artificial)

    # phase 2: the real objective, reduced over the current basis
    c_scale = lcm(*(Fraction(c).denominator for c in lp.objective)) if n else 1
    c_int = [int(Fraction(c) * c_scale) for c in lp.objective]
    obj = [0] * (n_cols + 1)
    for j in range(n):
        obj[j] = -t.d * c_int[j]
    for i, b in enumerate(t.basis):
        if b < n and c_int[b]:
            obj = [a + c_int[b] * r for a, r in zip(obj, t.rows[i])]
    t.obj = obj
    status = t.run(structural)
    if status == "unbounded":
        return LPSolution("unbounded")

    x = [Fraction(0)] * n
    for i, b in enumerate(t.basis):
        if b < n:
            x[b] = Fraction(t.rows[i][-1], t.d)
    value = Fraction(t.obj[-1], t.d * c_scale)
    return LPSolution("optimal", value, tuple(x))


def _expel_artificials(t: _Tableau, artificial) -> None:
    """Pivot zero-level artificials out of the basis; drop rows that turn
    out to be redundant equations."""
    keep = []
    for i in range(len(t.rows)):
        if t.basis[i] not in artificial:
            keep.append(i)
            continue
        q = next(
            (j for j in range(t.n_cols) if j not in artificial and t.rows[i][j] != 0),
            None,
        )
        if q is None:
            continue  # all-zero row: redundant constraint
        if t.rows[i][q] < 0:
            t.rows[i] = [-a for a in t.rows[i]]
        t.pivot(i, q)
        keep.append(i)
    if len(keep) < len(t.rows):
        t.rows = [t.rows[i] for i in keep]
        t.basis = [t.basis[i] for i in keep]
