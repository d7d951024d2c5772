"""Partitions in the box, Bruhat order, corners, and the minor dictionary."""

import copy
import pickle

import pytest

from schubert_arcs import (
    GrassmannShape,
    Partition,
    PlanePartition,
    all_partitions,
    outside_corners,
    schubert_conditions,
    singular_components,
)
from schubert_arcs.partitions import (
    format_multi_index,
    format_partition,
    minor_of_multi_index,
    parse_multi_index,
    parse_partition,
)
from itertools import combinations

from oracles import (
    column_slice,
    final_minor,
    final_multi_index,
    fixed_point_census,
    minor_leq,
    multi_index_from_partition,
    multi_index_of_minor,
    partition_from_multi_index,
    rectangle_ideal_minors,
    rim_size,
    rim_size_by_scan,
    shapes_up_to,
)

G24 = GrassmannShape(2, 4)
G36 = GrassmannShape(3, 6)


def test_shape_rejects_degenerate_box():
    with pytest.raises(ValueError):
        GrassmannShape(0, 4)
    with pytest.raises(ValueError):
        GrassmannShape(4, 4)
    assert GrassmannShape(3, 7).cols == 4
    for k, n in [(True, 4), (1, True), (2.0, 4)]:
        with pytest.raises(ValueError, match="shape parameters must be integers"):
            GrassmannShape(k, n)


def test_shape_is_an_immutable_value():
    shape = GrassmannShape(2, 4)
    assert shape == GrassmannShape(k=2, n=4) and shape != GrassmannShape(2, 5)
    assert shape != (2, 4) and shape != shape._args()
    assert shape != Partition((), shape) and shape != PlanePartition.zero(shape)
    assert hash(shape) == hash((2, 4))
    assert repr(shape) == "GrassmannShape(2, 4)"
    with pytest.raises(AttributeError, match="GrassmannShape is immutable"):
        shape.k = 3
    assert copy.deepcopy(shape) == shape
    assert pickle.loads(pickle.dumps(shape)) == shape
    with pytest.raises(ValueError, match="shape parameters must be integers"):
        GrassmannShape(2.0, 4)
    with pytest.raises(ValueError, match=r"need 1 <= k < n, got k=3, n=2"):
        GrassmannShape(3, 2)


def test_partitions_copy_and_pickle():
    cases = [Partition((), G24), Partition((2, 1), G24), Partition((3, 1, 1), G36)]
    cases += list(all_partitions(GrassmannShape(3, 5)))
    for lam in cases:
        for twin in (copy.copy(lam), copy.deepcopy(lam), pickle.loads(pickle.dumps(lam))):
            assert type(twin) is Partition
            assert twin == lam and hash(twin) == hash(lam)
            assert twin != lam._args() and twin != lam.shape
            assert twin != PlanePartition.zero(lam.shape)
            with pytest.raises(AttributeError, match="Partition is immutable"):
                twin.parts = ()


def test_partition_must_fit_and_decrease():
    assert Partition((2, 1), G24).parts == (2, 1)
    with pytest.raises(ValueError):
        Partition((3, 1), G24)
    with pytest.raises(ValueError):
        Partition((1, 2), G24)
    with pytest.raises(ValueError):
        Partition((1, 1, 1), G24)
    assert Partition((2, 0, 0), G36).parts == (2,)
    assert Partition((0, 0), G36).parts == ()
    # a zero before a positive part breaks the order; only trailing zeros go
    for parts in [(2, 0, 1), (0, 0, 3), (0, 1), (1, 0, 1)]:
        with pytest.raises(ValueError, match="not weakly decreasing"):
            Partition(parts, G36)
    for parts in [(2, 1.5), (2, -0.5), (2.0,), (True,), (2, False), ("2",)]:
        with pytest.raises(ValueError, match="parts must be integers"):
            Partition(parts, G36)
    with pytest.raises(ValueError, match="negative part"):
        Partition((2, -1), G36)
    with pytest.raises(ValueError):
        parse_partition("2,0,1", G36)
    assert parse_partition("2,1,0", G36).parts == (2, 1)


def test_partition_cells_and_containment():
    lam = Partition((3, 1, 1), G36)
    assert lam.size == 5
    assert lam.part(1) == 3 and lam.part(2) == 1 and lam.part(4 - 1) == 1
    assert lam.has_cell(1, 3) and not lam.has_cell(2, 2)
    assert set(lam.cells()) == {(1, 1), (1, 2), (1, 3), (2, 1), (3, 1)}
    assert Partition((3, 1), G36).contains(Partition((2, 1), G36))
    assert not Partition((3,), G36).contains(Partition((1, 1), G36))


def test_multi_index_bijection_exhaustive():
    for shape in shapes_up_to(8):
        seen = set()
        for lam in [Partition((), shape), *all_partitions(shape)]:
            entries = multi_index_from_partition(lam)
            assert partition_from_multi_index(entries, shape) == lam
            seen.add(entries)
        assert seen == set(combinations(range(1, shape.n + 1), shape.k))


def test_multi_index_known_values():
    assert multi_index_from_partition(Partition((3, 1, 1), G36)) == (2, 3, 6)
    assert multi_index_from_partition(Partition((), G36)) == (1, 2, 3)
    assert partition_from_multi_index((4, 5, 6), G36).parts == (3, 3, 3)
    with pytest.raises(ValueError):
        partition_from_multi_index((1, 1, 2), G36)
    with pytest.raises(ValueError):
        partition_from_multi_index((0, 1, 2), G36)


def test_bruhat_is_containment_order():
    lams = [Partition((), G36), *all_partitions(G36)]
    for lam in lams:
        for mu in lams:
            expected = all(lam.part(i) <= mu.part(i) for i in range(1, 4))
            assert mu.contains(lam) == expected
    empty = Partition((), G36)
    assert all(mu.contains(empty) for mu in lams)


def test_schubert_conditions_are_the_corners():
    assert schubert_conditions(Partition((3, 1, 1), G36)) == [(1, 3), (3, 1)]
    assert schubert_conditions(Partition((2, 2), G36)) == [(2, 2)]
    assert schubert_conditions(Partition((3, 2, 1), G36)) == [(1, 3), (2, 2), (3, 1)]
    assert schubert_conditions(Partition((), G36)) == []


def test_outside_corners_pad_virtual_ends():
    assert outside_corners(Partition((1,), G24)) == [(0, 2), (1, 1), (2, 0)]
    assert outside_corners(Partition((2, 2), G24)) == [(2, 2)]
    assert outside_corners(Partition((2, 1), G24)) == [(1, 2), (2, 1)]
    assert outside_corners(Partition((2,), G24)) == [(1, 2), (2, 0)]


def test_singular_components_small_cases():
    assert [c.parts for c in singular_components(Partition((1,), G24))] == [(2, 2)]
    assert singular_components(Partition((2, 1), G24)) == []
    assert singular_components(Partition((), G24)) == []
    comps = singular_components(Partition((3, 1), G36))
    assert [c.parts for c in comps] == [(3, 2, 2)]


def test_singular_components_match_fixed_point_census():
    """The components must cut out exactly the strict fixed points."""
    for shape in shapes_up_to(6) + [GrassmannShape(3, 7)]:
        lams = [Partition((), shape), *all_partitions(shape)]
        for lam in lams:
            members, singular = fixed_point_census(lam)
            assert members == {mu for mu in lams if mu.contains(lam)}
            comps = singular_components(lam)
            for comp in comps:
                assert comp.contains(lam) and comp != lam
            assert singular == {
                mu for mu in members if any(mu.contains(comp) for comp in comps)
            }, lam


def test_rim_size_known_values():
    assert rim_size(Partition((1,), G36)) == 3
    assert rim_size(Partition((2, 1), G36)) == 5
    assert rim_size(Partition((2, 2), G36)) == 5
    sh = GrassmannShape(4, 8)
    assert rim_size(Partition((3, 1), sh)) == 6
    assert rim_size(Partition((3, 2, 1), sh)) == 7
    assert rim_size(Partition((3, 3, 1), sh)) == 7


def test_rim_size_closed_form():
    # Away from the box boundary the rim is the full lattice path around
    # the diagram, of length (first part) + (number of parts) + 1: the
    # formula against a count of the touching cells, 1,981 partitions.
    checked = 0
    for shape in shapes_up_to(12):
        for lam in all_partitions(shape):
            if len(lam.parts) > shape.k - 1 or lam.parts[0] > shape.cols - 1:
                continue
            assert rim_size(lam) == rim_size_by_scan(lam), (shape, lam)
            checked += 1
    assert checked == 1981


def test_rim_size_rejects_boundary_contact():
    with pytest.raises(ValueError):
        rim_size(Partition((), G24))
    with pytest.raises(ValueError):
        rim_size(Partition((2,), G24))
    with pytest.raises(ValueError):
        rim_size(Partition((1, 1), G24))


def test_multi_indexes_are_checked_not_truncated():
    # every entry must be an int, never truncated; the index must be sorted,
    # and a minor label must translate to exactly k entries
    with pytest.raises(ValueError, match="integers"):
        partition_from_multi_index((1.9, 3.5), G24)
    with pytest.raises(ValueError, match="integers"):
        minor_of_multi_index((1.0, 2.7), G24)
    with pytest.raises(ValueError, match="integers"):
        partition_from_multi_index((True, 3), G24)
    with pytest.raises(ValueError, match="increasing"):
        minor_of_multi_index((2, 1), G24)
    with pytest.raises(ValueError, match="k=2"):
        multi_index_of_minor((1, 1), (1, 2), G24)
    with pytest.raises(ValueError, match="integers"):
        multi_index_of_minor((1,), (1.5,), G24)
    with pytest.raises(ValueError, match="integers"):
        multi_index_of_minor((1.0,), (1,), G24)
    assert minor_of_multi_index((1, 3), G24) == ((1,), (1,))
    assert multi_index_of_minor((1,), (1,), G24) == (1, 3)


def test_minor_dictionary_round_trip():
    for shape in shapes_up_to(6):
        for entries in combinations(range(1, shape.n + 1), shape.k):
            rows, cols = minor_of_multi_index(entries, shape)
            assert multi_index_of_minor(rows, cols, shape) == entries


def test_final_minor_frozen_g24():
    assert final_minor(G24, 1, 1) == ((1, 2), (1, 2))
    assert final_minor(G24, 1, 2) == ((1,), (2,))
    assert final_minor(G24, 2, 1) == ((2,), (1,))
    assert final_minor(G24, 2, 2) == ((2,), (2,))
    assert final_multi_index(G24, 1, 1) == (1, 2)
    assert final_multi_index(G24, 1, 2) == (2, 3)
    assert final_multi_index(G24, 2, 1) == (1, 4)
    assert final_multi_index(G24, 2, 2) == (2, 4)


def test_minor_leq_componentwise():
    assert minor_leq(((1,), (1,)), ((2,), (2,)))
    assert not minor_leq(((2,), (1,)), ((1,), (2,)))
    assert minor_leq(((1, 2), (1, 2)), ((1, 2), (1, 2)))


def test_rectangle_ideal_minors_shape():
    for shape in [G24, G36, GrassmannShape(2, 5)]:
        k, c = shape.k, shape.cols
        for a in range(1, k + 1):
            for b in range(1, c + 1):
                minors = rectangle_ideal_minors(shape, a, b)
                r = min(k - a, c - b)
                if k - a <= c - b:
                    rows_pool, cols_pool = range(1, k + 1), range(1, b + r + 1)
                else:
                    rows_pool, cols_pool = range(1, a + r + 1), range(1, c + 1)
                expected = {
                    (rr, cc)
                    for rr in combinations(rows_pool, r + 1)
                    for cc in combinations(cols_pool, r + 1)
                }
                assert set(minors) == expected, (shape, a, b)


def test_rectangle_ideal_minors_realize_contact_orders():
    """The smallest order among the ideal's minors of the affine block is
    the rectangle contact order of the arc."""
    from schubert_arcs import essential_profile, invariant_factor_profile
    from schubert_arcs.series import parse_arc_matrix, series_det

    arc = parse_arc_matrix("t^2,0,0,1; 0,t,1,0", 8)
    affine = column_slice(arc, 2)
    alpha = essential_profile(invariant_factor_profile(arc))
    for a in range(1, 3):
        for b in range(1, 3):
            best = min(
                series_det(affine, [r - 1 for r in rows], [c - 1 for c in cols]).order()
                for rows, cols in rectangle_ideal_minors(G24, a, b)
            )
            assert best == alpha[a - 1][b - 1], (a, b)


def test_partition_text_round_trip():
    assert parse_partition("3,1,1", G36).parts == (3, 1, 1)
    assert parse_partition("", G36).parts == ()
    assert parse_partition("0", G36).parts == ()
    assert format_partition(Partition((3, 1, 1), G36)) == "3,1,1"
    assert format_partition(Partition((), G36)) == "0"
    assert parse_multi_index("[1,3,6]", G36) == (1, 3, 6)
    assert parse_multi_index("2, 3, 6", G36) == (2, 3, 6)
    assert format_multi_index((1, 3, 6)) == "[1,3,6]"
    with pytest.raises(ValueError):
        parse_partition("1,2", G36)
    with pytest.raises(ValueError):
        parse_multi_index("[1,1,2]", G36)
