"""Grassmannian duality: G(k, n) and G(n-k, n) are the same variety, with
partitions and plane partitions transposed, so every invariant commutes
with transposition."""

import pytest

from schubert_arcs import (
    GrassmannShape,
    Partition,
    PlanePartition,
    all_partitions,
    compare,
    discrepancy_data,
    generic_arc,
    invariant_factor_profile,
    lct,
)
from schubert_arcs.plane_partitions import all_plane_partitions
from schubert_arcs.series import SeriesMatrix, big_cell_arc


def dual_shape(shape):
    return GrassmannShape(shape.cols, shape.n)


def transpose_partition(lam):
    """λ′, whose parts are the column lengths of λ."""
    return Partition([sum(part > j for part in lam.parts) for j in range(lam.shape.cols)], dual_shape(lam.shape))


def transpose(beta):
    return PlanePartition([list(column) for column in zip(*beta.rows)], dual_shape(beta.shape))


def dual_arc(arc):
    """The arc on G(n-k, n) of a big-cell arc (X | D) on G(k, n): the affine
    block X with its columns reversed and transposed is the affine block of
    [B | I], which the antidiagonal row permutation, a change of basis of
    the subspace, puts in big-cell form (rows of B reversed | D)."""
    k, n = arc.nrows, arc.ncols
    b = [list(column) for column in zip(*(row[n - k - 1 :: -1] for row in arc.entries))]
    return big_cell_arc(SeriesMatrix(b[::-1]))


# (shape, largest entry) of the plane partitions compared in pairs
PAIR_SETS = [(GrassmannShape(2, 5), 2), (GrassmannShape(3, 6), 1)]


@pytest.mark.parametrize("k, n", [(2, 5), (2, 6), (3, 5), (3, 7)])
def test_threshold_of_the_transposed_partition(k, n):
    lams = [lam for lam in all_partitions(GrassmannShape(k, n)) if lam]
    assert lams
    for lam in lams:
        assert lct(lam) == lct(transpose_partition(lam)), lam


@pytest.mark.parametrize("shape, height", PAIR_SETS, ids=str)
def test_containment_verdicts_commute_with_transposition(shape, height):
    betas = list(all_plane_partitions(shape, height))
    duals = {beta: transpose(beta) for beta in betas}
    relations = set()
    for beta in betas:
        for beta2 in betas:
            relation = compare(beta, beta2).relation
            assert relation == compare(duals[beta], duals[beta2]).relation, (beta, beta2)
            relations.add(relation)
    assert {"contains", "not-contains"} <= relations


@pytest.mark.parametrize("shape, height", PAIR_SETS, ids=str)
def test_discrepancy_data_commutes_with_transposition(shape, height):
    for beta in all_plane_partitions(shape, height):
        assert discrepancy_data(beta) == discrepancy_data(transpose(beta)), beta


@pytest.mark.parametrize("k, n", [(2, 5), (3, 5), (2, 6), (4, 6), (3, 6)])
def test_dual_arc_has_the_transposed_profile(k, n):
    for beta in all_plane_partitions(GrassmannShape(k, n), 2):
        dual = dual_arc(generic_arc(beta, precision=8))
        assert (dual.nrows, dual.ncols) == (n - k, n)
        assert invariant_factor_profile(dual) == transpose(beta), beta
