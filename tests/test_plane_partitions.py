"""Plane partitions, contact profiles, floors, and plateaux."""

import copy
import pickle
import random

import pytest

from schubert_arcs import (
    INF,
    GrassmannShape,
    Infinity,
    InvalidPlanePartition,
    Partition,
    PlanePartition,
    all_partitions,
    all_plane_partitions,
    essential_profile,
    floors,
    from_essential,
    from_floors,
    home_center,
    ord_schubert,
    plateaux,
    schubert_conditions,
    weight_exponents,
)
from schubert_arcs.plane_partitions import (
    format_ext,
    format_plane_partition,
    parse_ext,
    parse_plane_partition,
)

from oracles import (
    grown_plane_partition,
    plane_partitions_by_recursion,
    plateaux_by_regions,
    random_plane_partition,
    shapes_up_to,
)

G24 = GrassmannShape(2, 4)
G36 = GrassmannShape(3, 6)


def pp(text, shape=G24):
    return parse_plane_partition(text, shape)


def test_infinity_saturates():
    assert INF + 3 == INF and 3 + INF == INF
    assert INF - 5 == INF and INF - INF == INF
    assert INF == INF and not INF < INF
    assert INF > 10**9 and 10**9 < INF
    assert min(INF, 4) == 4 and max(INF, 4) == INF
    with pytest.raises(ValueError):
        3 - INF


def test_ext_tokens():
    assert parse_ext("inf") == INF
    assert parse_ext(" 7 ") == 7
    assert format_ext(INF) == "inf"
    assert format_ext(0) == "0"
    with pytest.raises(ValueError):
        parse_ext("-1")
    with pytest.raises(ValueError):
        parse_ext("two")


def test_validation_reports_offending_cell():
    with pytest.raises(InvalidPlanePartition) as info:
        PlanePartition([[1, 2], [0, 0]], G24)
    assert info.value.cell == (1, 2)
    with pytest.raises(InvalidPlanePartition) as info:
        PlanePartition([[1, 1], [2, 0]], G24)
    assert info.value.cell == (2, 1)
    with pytest.raises(InvalidPlanePartition):
        PlanePartition([[1, 1]], G24)
    with pytest.raises(InvalidPlanePartition):
        PlanePartition([[1, -1], [0, 0]], G24)
    # inf entries must sit northwest of everything finite
    assert PlanePartition([[INF, 2], [1, 0]], G24).at(1, 1) == INF
    with pytest.raises(InvalidPlanePartition):
        PlanePartition([[2, INF], [1, 0]], G24)


def test_basic_accessors():
    beta = pp("3 2; 1 1")
    assert beta.volume == 7
    assert beta.height == 3
    assert beta.is_finite
    assert beta.at(1, 2) == 2
    assert beta.add_box(2, 1).rows == ((3, 2), (2, 1))
    assert beta.add_box(1, 2).rows == ((3, 3), (1, 1))
    with pytest.raises(InvalidPlanePartition):
        beta.add_box(2, 1).add_box(2, 1).add_box(2, 1)
    with pytest.raises(ValueError):
        PlanePartition([[INF, 0], [0, 0]], G24).add_box(1, 1)
    assert not pp("inf 1; 1 0").is_finite
    assert pp("inf 1; 1 0").volume == INF


def test_positions_must_be_ints():
    # True used to read row 1, and a float position raised TypeError
    beta = pp("3 2 1; 2 1 1; 1 1 0", G36)
    for bad in ((True, 1), (1, True), (1.0, 1), (1, 2.0), ("1", 1), (None, 1)):
        with pytest.raises(ValueError, match="is not a pair of ints"):
            beta.at(*bad)
        with pytest.raises(ValueError, match="is not a pair of ints"):
            beta.add_box(*bad)
    with pytest.raises(IndexError):
        beta.at(0, 1)


def test_diagonal_sums_and_rectangle_orders():
    beta = pp("3 2 1; 2 1 1; 1 1 0", G36)
    alpha = essential_profile(beta)
    assert alpha == ((4, 3, 1), (3, 1, 1), (1, 1, 0))
    assert alpha[0][0] == beta.at(1, 1) + beta.at(2, 2) + beta.at(3, 3)
    assert alpha[0][2] == beta.at(1, 3) and alpha[2][0] == beta.at(3, 1)
    assert from_essential(alpha, G36) == beta


def test_ord_schubert_minimizes_over_corners():
    beta = pp("3 2 1; 2 1 1; 1 1 0", G36)
    assert ord_schubert(beta, Partition((2, 2), G36)) == 1
    assert ord_schubert(beta, Partition((3, 1, 1), G36)) == 1
    with pytest.raises(ValueError):
        ord_schubert(beta, Partition((), G36))
    profile = {lam: ord_schubert(beta, lam) for lam in all_partitions(G36)}
    for lam, order in profile.items():
        alpha = essential_profile(beta)
        assert order == min(alpha[a - 1][b - 1] for a, b in schubert_conditions(lam))


def test_profile_round_trip_random():
    rng = random.Random(31)
    for shape in shapes_up_to(6):
        for _ in range(20):
            beta = random_plane_partition(shape, 5, rng)
            assert from_essential(essential_profile(beta), shape) == beta


def test_plane_partitions_copy_and_pickle():
    cases = [
        PlanePartition.zero(G24),
        pp("3 2; 1 1"),
        pp("inf 1; 1 0"),
        pp("inf inf 1; inf 1 1; 2 1 0", G36),
        PlanePartition.constant(G36, INF),
    ]
    for beta in cases:
        for twin in (
            copy.copy(beta),
            copy.deepcopy(beta),
            pickle.loads(pickle.dumps(beta)),
        ):
            assert type(twin) is PlanePartition
            assert twin == beta and hash(twin) == hash(beta)
            assert twin != beta._args() and twin != beta.shape
            assert twin != Partition((), beta.shape)
            with pytest.raises(AttributeError, match="PlanePartition is immutable"):
                twin.rows = ()


def test_profile_round_trip_with_infinite_pillars():
    beta = pp("inf inf 1; inf 1 1; 2 1 0", G36)
    assert from_essential(essential_profile(beta), G36) == beta
    assert essential_profile(beta)[0][0] == INF


def test_essential_profile_is_every_diagonal_sum():
    rng = random.Random(7)
    shapes = [GrassmannShape(k, n) for n in range(4, 13) for k in range(2, n - 1)]
    for shape in shapes:
        k, c = shape.k, shape.cols
        for _ in range(3):
            beta = random_plane_partition(shape, 4, rng)
            grown = grown_plane_partition(beta, rng.randint(1, 6), rng)
            a, b = rng.randint(1, k), rng.randint(1, c)
            pillars = PlanePartition(
                [[INF if i < a and j < b else e for j, e in enumerate(row)]
                 for i, row in enumerate(grown.rows)],
                shape,
            )
            for case in (beta, grown, pillars):
                # each diagonal walked from its start to the edge of the box
                expected = tuple(
                    tuple(
                        sum(case.rows[i + d][j + d] for d in range(min(k - i, c - j)))
                        for j in range(c)
                    )
                    for i in range(k)
                )
                assert essential_profile(case) == expected, case


def test_from_essential_rejects_bad_profiles():
    with pytest.raises(ValueError):
        from_essential(((1, 0), (0, 2)), G24)
    with pytest.raises(ValueError):
        from_essential(((1, 0),), G24)


def test_weight_exponents_frozen():
    assert weight_exponents(pp("1 1; 1 1")) == ((1, 0), (0, 1))
    assert weight_exponents(pp("2 2; 2 2")) == ((2, 0), (0, 2))
    assert weight_exponents(pp("1 1; 1 0")) == ((1, 1), (1, 0))
    assert weight_exponents(pp("1 1; 0 0")) == ((1, 1), (0, 0))
    beta = pp("inf 1; 1 0")
    assert weight_exponents(beta) == ((INF, 1), (1, 0))


def test_weight_exponents_split_by_aspect():
    # wider than tall: row difference; taller than wide: column difference;
    # square: the entry itself.
    beta = pp("3 2 1; 2 2 1; 1 1 1", G36)
    exps = weight_exponents(beta)
    k, c = 3, 3
    for i in range(1, k + 1):
        for j in range(1, c + 1):
            below, right = k - i, c - j
            if below < right:
                assert exps[i - 1][j - 1] == beta.at(i, j) - beta.at(i, j + 1)
            elif below > right:
                assert exps[i - 1][j - 1] == beta.at(i, j) - beta.at(i + 1, j)
            else:
                assert exps[i - 1][j - 1] == beta.at(i, j)


def test_floors_and_from_floors():
    beta = pp("3 2; 1 1")
    fl = floors(beta)
    assert [f.parts for f in fl] == [(2, 2), (2,), (1,)]
    grouped = [(fl[0], 1), (fl[1], 1), (fl[2], 1)]
    assert from_floors(grouped, G24) == beta
    mu = Partition((2, 1), G24)
    assert from_floors([(mu, 3)], G24).rows == ((3, 3), (3, 0))
    with pytest.raises(ValueError):
        floors(pp("inf 0; 0 0"))
    with pytest.raises(ValueError):
        from_floors([(Partition((1,), G24), 1), (mu, 1)], G24)
    with pytest.raises(ValueError):
        from_floors([(mu, 0)], G24)
    with pytest.raises(ValueError):
        from_floors([(mu, True)], G24)


def test_floors_round_trip_random():
    rng = random.Random(99)
    for shape in shapes_up_to(5):
        for _ in range(25):
            beta = random_plane_partition(shape, 4, rng)
            if beta.volume == 0:
                assert floors(beta) == []
                continue
            fl = floors(beta)
            grouped = []
            for f in fl:
                if grouped and grouped[-1][0] == f:
                    grouped[-1] = (f, grouped[-1][1] + 1)
                else:
                    grouped.append((f, 1))
            assert from_floors(grouped, shape) == beta


def test_home_center():
    home, center = home_center(pp("inf 1; 1 0"))
    assert home.parts == (1,)
    assert center.parts == (2, 1)
    home, center = home_center(pp("2 2; 2 1"))
    assert home.parts == ()
    assert center.parts == (2, 2)


def test_plateaux_semantics():
    beta = pp("2 2; 2 1")
    found = {pos: (h, fall) for pos, h, fall in plateaux(beta)}
    assert found[(1, 1)] == (INF, INF)
    assert found[(1, 2)] == (2, 0)
    assert found[(2, 1)] == (2, 0)
    assert found[(2, 2)] == (2, 1)
    constant = PlanePartition.constant(G24, 3)
    falls = {pos: fall for pos, _, fall in plateaux(constant)}
    assert falls == {(1, 1): INF, (1, 2): 0, (2, 1): 0, (2, 2): 0}
    infinite = pp("inf inf; inf inf")
    assert ((1, 1), INF, 0) in plateaux(infinite)


def test_plateaux_region_is_constant():
    rng = random.Random(5)
    for _ in range(40):
        beta = random_plane_partition(G36, 3, rng)
        for (a, b), h, fall in plateaux(beta):
            region = {
                beta.at(i, j)
                for i in range(1, a + 1)
                for j in range(1, b + 1)
                if (i, j) != (a, b)
            }
            assert region in ({h}, set())
            if not isinstance(h, Infinity):
                assert fall == h - beta.at(a, b)


def test_plateaux_match_the_region_scan():
    """Every plane partition of bounded height in every box of at most
    4 x 4, and each again with its top value raised to an infinite pillar."""
    checked = 0
    for shape in shapes_up_to(8):
        if shape.k > 4 or shape.cols > 4:
            continue
        height = 3 if shape.k * shape.cols <= 9 else 2
        for beta in all_plane_partitions(shape, height):
            pillar = PlanePartition(
                [[INF if e == height else e for e in row] for row in beta.rows], shape
            )
            for candidate in (beta, pillar):
                assert plateaux(candidate) == plateaux_by_regions(candidate), candidate
                checked += 1
    assert checked > 8000


def test_enumeration_matches_the_recursive_search():
    # the same sequence, order included, as the former search through
    # nested generators, on every shape with n <= 7 and every height 0..3
    # (0..2 from n = 7)
    checked = 0
    for shape in shapes_up_to(7):
        for height in range(3 if shape.n == 7 else 4):
            got = list(all_plane_partitions(shape, height))
            assert got == list(plane_partitions_by_recursion(shape, height)), (shape, height)
            checked += len(got)
    assert checked == 4907


def test_enumeration_height_must_be_a_natural():
    # -1 used to list nothing, True to count as 1, and 1.5 or inf to raise
    # TypeError
    for height in (-1, True, 1.5, INF, "2", None):
        with pytest.raises(ValueError):
            list(all_plane_partitions(G24, height))
    assert list(all_plane_partitions(G24, 0)) == [PlanePartition.zero(G24)]


def test_enumeration_counts():
    # boxed plane partition counts: prod (i+j+t-1)/(i+j-1)
    assert sum(1 for _ in all_plane_partitions(G24, 1)) == 6
    assert sum(1 for _ in all_plane_partitions(G24, 6)) == 336
    assert sum(1 for _ in all_plane_partitions(GrassmannShape(2, 4), 2)) == 20
    without_zero = sum(1 for beta in all_plane_partitions(G24, 6) if beta.volume > 0)
    assert without_zero == 335
    for beta in all_plane_partitions(G24, 2):
        assert beta.height <= 2


def test_text_round_trip():
    for text in ["2 2; 2 1", "inf 1; 1 0", "0 0; 0 0"]:
        assert format_plane_partition(pp(text)) == text
    with pytest.raises(ValueError):
        pp("1 2; 0 0")
    with pytest.raises(ValueError):
        pp("1 1; 1")
