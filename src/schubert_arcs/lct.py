"""Log canonical thresholds of Schubert varieties inside the Grassmannian.

The Arnold multiplicity of the pair is a max-min: the largest value, over
plane R-partitions beta of volume at most one, of ord(lambda)(beta), the
least diagonal sum of beta at a corner of lambda.  With one more variable t
bounded by every corner sum, it is the small exact linear program "maximize
t".  All its rows but the volume row are homogeneous, so the origin is a
vertex and a one-phase simplex solves it.  The log canonical threshold is
the reciprocal.  The simplex layer and ``fractions`` load when first used,
not on import.
"""

from __future__ import annotations

from math import lcm

from .partitions import GrassmannShape, Partition, schubert_conditions
from .plane_partitions import PlanePartition


def _var(shape: GrassmannShape, i: int, j: int) -> int:
    return (i - 1) * shape.cols + (j - 1)


def build_lp(lam: Partition) -> RationalLP:
    """Linear program whose optimum is the Arnold multiplicity of lam.

    Variables are the entries of a plane R-partition beta, row-major, then
    t at index k*(n-k); the objective is t.  Every row has the form
    coefficients . x <= rhs: entries weakly decrease along rows and columns
    (with non-negativity native to the solver), the volume is at most one,
    and t - D(beta) <= 0 for the diagonal sum D at each corner of lam, in
    the order of schubert_conditions.  So t is at most ord(lambda)(beta),
    with equality at every optimum, and every row but the volume row is
    homogeneous, so the volume is one at every optimum.
    """
    from .simplex import RationalLP

    if not lam:
        raise ValueError("the pair with the whole Grassmannian has no threshold")
    shape = lam.shape
    k, c = shape.k, shape.cols
    t = k * c
    lp = RationalLP(t + 1, [0] * t + [1])
    for i in range(1, k + 1):
        for j in range(1, c + 1):
            if j < c:
                row = [0] * (t + 1)
                row[_var(shape, i, j)] = -1
                row[_var(shape, i, j + 1)] = 1
                lp.add(row, 0)
            if i < k:
                row = [0] * (t + 1)
                row[_var(shape, i, j)] = -1
                row[_var(shape, i + 1, j)] = 1
                lp.add(row, 0)
    lp.add([1] * t + [0], 1)
    for a, b in schubert_conditions(lam):
        row = [0] * t + [1]
        for i, j in zip(range(a, k + 1), range(b, c + 1)):
            row[_var(shape, i, j)] = -1
        lp.add(row, 0)
    return lp


def _solve(lam: Partition) -> LPSolution:
    from .simplex import solve_max

    solution = solve_max(build_lp(lam))
    if solution.status != "optimal":
        raise RuntimeError(
            f"internal: the valuation polytope program came back {solution.status}"
        )
    return solution


def arnold_multiplicity(lam: Partition) -> Fraction:
    """Maximum of ord(lambda) over normalized Schubert valuations."""
    return _solve(lam).value


def arnold_witness(lam: Partition) -> tuple[Fraction, tuple[tuple[Fraction, ...], ...]]:
    """Arnold multiplicity together with a maximizing plane R-partition."""
    solution = _solve(lam)
    c = lam.shape.cols
    vertex = tuple(
        tuple(solution.vertex[r * c + j] for j in range(c)) for r in range(lam.shape.k)
    )
    return solution.value, vertex


def integer_witness(lam: Partition) -> PlanePartition:
    """The maximizing vertex scaled by the least common denominator.

    The result is an integer plane partition beta with
    ord(lambda)(beta) / |beta| equal to the Arnold multiplicity.
    """
    value, vertex = arnold_witness(lam)
    scale = lcm(*(entry.denominator for row in vertex for entry in row))
    rows = [[int(entry * scale) for entry in row] for row in vertex]
    return PlanePartition(rows, lam.shape)


def lct(lam: Partition) -> Fraction:
    """Log canonical threshold of the pair (Grassmannian, Schubert variety)."""
    return 1 / arnold_multiplicity(lam)
