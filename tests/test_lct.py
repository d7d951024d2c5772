"""Thresholds: the valuation-polytope program and its closed forms."""

from fractions import Fraction

import pytest

from schubert_arcs import (
    GrassmannShape,
    Partition,
    PlanePartition,
    arnold_multiplicity,
    arnold_witness,
    build_lp,
    integer_witness,
    lct,
    solve_max,
)
from schubert_arcs.partitions import all_partitions
from schubert_arcs.plane_partitions import floors, ord_schubert

from oracles import (
    brute_force_arnold,
    brute_lp_max,
    distinct_floor_count,
    equation_form_lp,
    lct_rectangular,
    rim_size,
    shapes_up_to,
    sv_extremal_points,
    two_phase_max,
)

G24 = GrassmannShape(2, 4)


def test_build_lp_structure():
    # beta row-major in 15 variables, then t; the objective is t, and each
    # of the corners (1, 4), (2, 2), (3, 1) of (4, 2, 1) bounds t by its
    # diagonal sum
    lam = Partition((4, 2, 1), GrassmannShape(3, 8))
    lp = build_lp(lam)
    assert lp.n_vars == 16
    assert lp.objective == [0] * 15 + [1]
    assert all(len(row) == 16 for row, _ in lp.constraints)
    assert len(lp.constraints) == 22 + 1 + 3
    monotone, volume, corners = lp.constraints[:22], lp.constraints[22], lp.constraints[23:]
    for row, rhs in monotone:
        assert rhs == 0
        assert row[15] == 0
        assert sorted(c for c in row if c) == [-1, 1]
    assert volume == ([1] * 15 + [0], 1)

    def corner_row(*diagonal):
        return [-1 if v in diagonal else 0 for v in range(15)] + [1]

    assert corners == [(corner_row(3, 9), 0), (corner_row(6, 12), 0), (corner_row(10), 0)]


def test_one_phase_program_matches_two_phase_equation_form():
    # the equalized program solved by the general two-phase method has the
    # same value and the same beta-vertex as the max-min program on every
    # nonempty partition with n <= 8
    count = 0
    for shape in shapes_up_to(8):
        for lam in all_partitions(shape):
            solution = solve_max(build_lp(lam))
            expected = two_phase_max(equation_form_lp(lam))
            assert solution.status == expected.status == "optimal", lam
            assert solution.value == expected.value, lam
            assert solution.vertex[:-1] == expected.vertex, lam
            count += 1
    assert count == 466


def test_build_lp_rejects_empty():
    with pytest.raises(ValueError):
        build_lp(Partition((), G24))


def test_g24_threshold_table():
    table = {(1,): 1, (1, 1): 2, (2,): 2, (2, 1): 3, (2, 2): 4}
    for parts, value in table.items():
        assert lct(Partition(parts, G24)) == value


def test_solver_agrees_with_vertex_enumeration_on_g24():
    for lam in all_partitions(G24):
        lp = build_lp(lam)
        assert solve_max(lp).value == brute_lp_max(lp)


def test_rectangular_closed_form():
    for shape in shapes_up_to(6):
        for a in range(1, shape.k + 1):
            for b in range(1, shape.cols + 1):
                lam = Partition((b,) * a, shape)
                assert lct(lam) == lct_rectangular(a, b, shape)


def test_rectangular_frozen_values():
    assert lct_rectangular(3, 3, GrassmannShape(7, 16)) == 8
    assert lct_rectangular(1, 1, G24) == 1
    assert lct_rectangular(2, 2, G24) == 4
    assert lct_rectangular(2, 2, GrassmannShape(5, 10)) == 4
    assert lct_rectangular(2, 3, GrassmannShape(4, 9)) == 6


def test_rectangular_validates():
    with pytest.raises(ValueError):
        lct_rectangular(0, 1, G24)
    with pytest.raises(ValueError):
        lct_rectangular(3, 1, G24)
    with pytest.raises(ValueError):
        lct_rectangular(1, 3, G24)
    # sides are ints: a bool is not taken for 1, nor a float compared
    for a, b in [(True, True), (1.0, 1), (1, 2.0)]:
        with pytest.raises(ValueError, match="rectangle sides must be integers"):
            lct_rectangular(a, b, G24)


def test_threshold_equals_codim_iff_small_rim():
    for shape in shapes_up_to(6):
        for lam in all_partitions(shape):
            if len(lam.parts) > shape.k - 1 or lam.parts[0] > shape.cols - 1:
                continue
            assert (lct(lam) == lam.size) == (lam.size <= rim_size(lam))


def test_witness_certifies_the_optimum():
    for parts, shape in [
        ((2, 1), G24),
        ((3, 1), GrassmannShape(3, 6)),
        ((2, 2, 1), GrassmannShape(3, 7)),
    ]:
        lam = Partition(parts, shape)
        value, vertex = arnold_witness(lam)
        assert value == arnold_multiplicity(lam) == 1 / lct(lam)
        assert sum(sum(row) for row in vertex) == 1
        for row in vertex:
            assert all(x >= y for x, y in zip(row, row[1:]))
        for row, row2 in zip(vertex, vertex[1:]):
            assert all(x >= y for x, y in zip(row, row2))
        w = integer_witness(lam)
        assert Fraction(ord_schubert(w, lam), w.volume) == value


def test_brute_force_matches_program_on_g24():
    lams = list(all_partitions(G24))
    assert brute_force_arnold(lams, 4) == [arnold_multiplicity(lam) for lam in lams]
    with pytest.raises(ValueError):
        brute_force_arnold([Partition((), G24)], 2)


def test_multi_floor_witness():
    lam = Partition((5, 4, 4, 4, 1), GrassmannShape(5, 10))
    assert lct(lam) == 17
    w = integer_witness(lam)
    assert distinct_floor_count(w) >= 2
    assert Fraction(ord_schubert(w, lam), w.volume) == Fraction(1, 17)


def test_extremal_points_are_scaled_indicators():
    pts = sv_extremal_points(G24)
    assert len(pts) == 5
    expected = set()
    for lam in all_partitions(G24):
        unit = Fraction(1, lam.size)
        expected.add(
            tuple(
                tuple(unit if lam.has_cell(i, j) else Fraction(0) for j in range(1, 3))
                for i in range(1, 3)
            )
        )
    assert set(pts) == expected
    for p in pts:
        assert sum(sum(row) for row in p) == 1


def test_distinct_floor_count():
    assert distinct_floor_count(PlanePartition([[3, 2], [1, 1]], G24)) == 3
    assert distinct_floor_count(PlanePartition([[1, 1], [1, 1]], G24)) == 1
    assert distinct_floor_count(PlanePartition.zero(G24)) == 0
    assert floors(PlanePartition.zero(G24)) == []
