"""Truncated series, arc matrices, and invariant factor profiles."""

import collections
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schubert_arcs import (
    GrassmannShape,
    NotAnArc,
    NotInBigCell,
    PrecisionExceeded,
    SeriesMatrix,
    TruncatedSeries,
    borel_translate,
    essential_profile,
    generic_arc,
    invariant_factor_profile,
    plucker_ord,
)
from schubert_arcs import PlanePartition
from schubert_arcs import series as series_module
from schubert_arcs.plane_partitions import parse_plane_partition
from schubert_arcs.series import (
    _check_big_cell,
    _pivot_columns,
    big_cell_arc,
    format_arc_matrix,
    format_series,
    parse_arc_matrix,
    parse_series,
    series_det,
)

from oracles import (
    borel_translate_by_series_det,
    check_big_cell_by_series_det,
    column_slice,
    grown_plane_partition,
    is_generic_form,
    is_unit,
    naive_alpha,
    perm_det,
    plucker_order_of_arc,
    random_plane_partition,
    rank_by_gauss_jordan,
    series_add,
    series_mul,
    series_sub,
    shapes_up_to,
    subset_dp_det,
)

G24 = GrassmannShape(2, 4)


def t_pow(e, prec=8, coeff=1):
    return TruncatedSeries.t_power(e, prec, coeff)


def test_series_construction_and_precision():
    s = TruncatedSeries([1, 2, 0, 0, 0])
    assert s.coeffs == (1, 2, 0, 0, 0)
    assert s.precision == 4
    assert TruncatedSeries([1, 2, 3, 4]).truncate(2).coeffs == (1, 2, 3)
    assert t_pow(9, prec=4) == TruncatedSeries.zero(4)
    assert s.truncate(1).coeffs == (1, 2)
    assert s.truncate(10) is s
    with pytest.raises(ValueError):
        TruncatedSeries([])
    with pytest.raises(ValueError):
        TruncatedSeries.t_power(-1, 4)
    # the precision is the number of coefficients, never a second argument
    with pytest.raises(TypeError):
        TruncatedSeries([1], 4)


def test_series_arithmetic():
    a = parse_series("1+t", 6)
    b = parse_series("t^2", 6)
    assert (a + b).coeffs == (1, 1, 1, 0, 0, 0, 0)
    assert (a - a).coeffs == (0,) * 7
    assert (a * b).coeffs == (0, 0, 1, 1, 0, 0, 0)
    assert (3 * a).coeffs == (3, 3, 0, 0, 0, 0, 0)
    assert (a * Fraction(1, 2)).coeffs[0] == Fraction(1, 2)
    # products keep the smaller precision
    assert (parse_series("t", 3) * parse_series("t", 9)).precision == 3
    assert (-a).coeffs == (-1, -1, 0, 0, 0, 0, 0)


def test_series_order_and_units():
    assert parse_series("t^2+t^3", 8).order() == 2
    # every known coefficient vanishes: precision + 1, a lower bound
    zero = parse_series("0", 8)
    assert zero.order() == zero.precision + 1 == 9
    assert is_unit(parse_series("2", 8))
    assert not is_unit(parse_series("t", 8))


def test_coefficients_must_be_exact():
    for coeffs in ([0.5, 1], ["a"], [True, 2], [1, None], [1.0]):
        with pytest.raises(ValueError):
            TruncatedSeries(coeffs)


def test_precision_must_not_be_negative():
    with pytest.raises(ValueError):
        TruncatedSeries([1, 2]).truncate(-1)
    with pytest.raises(ValueError):
        TruncatedSeries.zero(-1)
    with pytest.raises(ValueError):
        TruncatedSeries.one(-1)


def test_precision_and_exponent_must_be_naturals():
    # a bool used to pass for 1 and a float to end in TypeError
    s = TruncatedSeries([1, 2])
    for bad in (True, False, 1.5, 2.0, "2", -1):
        for build in (
            TruncatedSeries.zero,
            TruncatedSeries.one,
            lambda p: TruncatedSeries.t_power(1, p),
            lambda p: TruncatedSeries.t_power(p, 3),
            s.truncate,
            lambda p: parse_series("1", p),
            lambda p: parse_arc_matrix("1, t", p),
        ):
            with pytest.raises(ValueError):
                build(bad)
    zero_beta = PlanePartition.zero(G24)
    for bad in (True, 1.5):
        with pytest.raises(ValueError):
            generic_arc(zero_beta, precision=bad)
    assert TruncatedSeries([1, 2]).precision == 1
    assert TruncatedSeries.t_power(0, 0) == TruncatedSeries.one(0)


def test_determinant_takes_rows_and_columns_in_any_order():
    m = parse_arc_matrix("1, t, 0; t, 1, t^2", 4)
    assert series_det(m, [1, 0], [2, 0]) == perm_det(m, [1, 0], [2, 0])
    assert series_det(m, [0, 0], [1, 2]) == perm_det(m, [0, 0], [1, 2]) == TruncatedSeries.zero(4)
    assert series_det(m, [], []) == TruncatedSeries.one(4)


def test_foreign_operands_raise_type_error():
    s = TruncatedSeries([1, 2])
    for operate in (
        lambda: s + 1,
        lambda: 1 + s,
        lambda: s - Fraction(1, 2),
        lambda: s * 1.5,
        lambda: 1.5 * s,
        lambda: s * True,
        lambda: True * s,
        lambda: s * "t",
    ):
        with pytest.raises(TypeError):
            operate()
    assert 2 * s == s * 2 == TruncatedSeries([2, 4])
    assert Fraction(1, 2) * s == s * Fraction(1, 2) == TruncatedSeries([Fraction(1, 2), 1])


@st.composite
def coefficient_tuples(draw, precision):
    """Coefficients of a series at the given precision: ints and Fractions,
    negative and zero, often after a run of leading zeros."""
    coefficient = st.one_of(
        st.integers(-9, 9),
        st.fractions(min_value=-9, max_value=9, max_denominator=6),
    )
    leading = draw(st.integers(0, precision + 1))
    rest = draw(st.lists(coefficient, min_size=precision + 1 - leading, max_size=precision + 1 - leading))
    return (0,) * leading + tuple(rest)


@st.composite
def series_pairs(draw):
    p = draw(st.integers(0, 8))
    q = draw(st.one_of(st.just(p), st.integers(0, 8)))
    return draw(coefficient_tuples(p)), draw(coefficient_tuples(q))


def _same(result: TruncatedSeries, reference: tuple) -> None:
    assert result.precision == len(reference) - 1
    assert result.coeffs == reference
    assert [type(c) for c in result.coeffs] == [type(c) for c in reference]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    series_pairs(),
    st.one_of(st.integers(-9, 9), st.fractions(min_value=-9, max_value=9, max_denominator=6)),
)
def test_arithmetic_matches_the_reference(pair, scalar):
    a, b = pair
    x, y = TruncatedSeries(a), TruncatedSeries(b)
    _same(x + y, series_add(a, b))
    _same(x - y, series_sub(a, b))
    _same(x * y, series_mul(a, b))
    _same(y * x, series_mul(b, a))
    _same(x * scalar, series_mul(a, scalar))
    _same(scalar * x, series_mul(a, scalar))
    _same(-x, series_mul(a, -1))


@st.composite
def determinant_cases(draw):
    """A series matrix of up to 6 x 6 entries at one precision 0..6, with
    int and Fraction coefficients, and the rows and columns of a square
    submatrix of size 0..6 in any order, repeats included."""
    size = draw(st.integers(0, 6))
    precision = draw(st.integers(0, 6))
    nrows, ncols = draw(st.integers(max(size, 1), 6)), draw(st.integers(max(size, 1), 6))
    coefficient = st.sampled_from([2, -1, 0, Fraction(1, 2), 1, 0, -3, Fraction(-4, 3), Fraction(6, 3)])
    coefficients = st.lists(coefficient, min_size=precision + 1, max_size=precision + 1)
    matrix = SeriesMatrix(
        [[TruncatedSeries(draw(coefficients)) for _ in range(ncols)] for _ in range(nrows)]
    )

    def indices(count):
        # mostly distinct, so that most minors are not zero for a repeat
        repeats = draw(st.integers(0, 3)) == 3
        return draw(st.lists(st.integers(0, count - 1), min_size=size, max_size=size, unique=not repeats))

    return matrix, indices(nrows), indices(ncols)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(determinant_cases())
def test_determinant_matches_both_references(case):
    matrix, rows, cols = case
    det = series_det(matrix, rows, cols)
    assert det == perm_det(matrix, rows, cols)
    reference = subset_dp_det(matrix, rows, cols)
    _same(det, reference.coeffs)


def test_small_minors_match_both_references():
    # sizes 1 and 2 have closed forms, sizes 3 and 4 the subset program:
    # rows and columns drawn in any order, now and then a repeated row, on
    # int and on Fraction coefficients, some coefficients zero
    rng = random.Random(23)
    sizes = collections.Counter()
    for case in range(400):
        size = (1, 2, 1, 2, 3, 4)[case % 6]
        fractional = case % 4 >= 2
        nrows, ncols = rng.randint(size, 5), rng.randint(size, 5)
        precision = rng.randint(0, 5)

        def coefficient():
            if rng.random() < 0.3:
                return 0
            if fractional:
                return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            return rng.randint(-4, 4)

        m = SeriesMatrix(
            [
                [TruncatedSeries([coefficient() for _ in range(precision + 1)]) for _ in range(ncols)]
                for _ in range(nrows)
            ]
        )
        rows = rng.sample(range(nrows), size)
        if size > 1 and case % 5 == 0:
            rows[-1] = rows[0]
        cols = rng.sample(range(ncols), size)
        det = series_det(m, rows, cols)
        assert det == perm_det(m, rows, cols), (case, rows, cols)
        if size == 1:
            # the entry itself, a Fraction zero kept as it is
            assert det is m.entries[rows[0]][cols[0]]
        else:
            _same(det, subset_dp_det(m, rows, cols).coeffs)
        if len(set(rows)) < size:
            assert det.order() == precision + 1
        sizes[size, fractional] += 1
    assert min(sizes.values()) >= 30 and len(sizes) == 8


def test_big_cell_minors_leave_out_zero_entries(monkeypatch):
    # minors of size 3 to 5 of arcs (X | D), on int and on Fraction
    # coefficients, with Fraction-zero entries in X and now and then a zero
    # row: the values and coefficient types are those of both references,
    # and no product has a zero entry as its factor
    rng = random.Random(24)
    products = []
    plain_mul = TruncatedSeries.__mul__

    def recording_mul(self, other):
        products.append(self)
        return plain_mul(self, other)

    sizes = collections.Counter()
    for case in range(240):
        size = 3 + case % 3
        fractional = case % 2 == 1
        k, width = rng.randint(size, 5), rng.randint(1, 4)
        precision = rng.randint(0, 4)

        def coefficient():
            if rng.random() < 0.4:
                return Fraction(0) if fractional else 0
            if fractional:
                return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            return rng.randint(-4, 4)

        affine = [
            [TruncatedSeries([coefficient() for _ in range(precision + 1)]) for _ in range(width)]
            for _ in range(k)
        ]
        rows = rng.sample(range(k), size)
        zero_row = case % 4 >= 2
        if zero_row:
            # its unit lies outside the minor's columns, so the row is zero
            affine[rows[0]] = [TruncatedSeries([Fraction(0) if fractional else 0] * (precision + 1))] * width
            unit = width + k - 1 - rows[0]
            cols = rng.sample([c for c in range(width + k) if c != unit], size)
        else:
            cols = rng.sample(range(width + k), size)
        arc = big_cell_arc(SeriesMatrix(affine))
        products.clear()
        monkeypatch.setattr(TruncatedSeries, "__mul__", recording_mul)
        det = series_det(arc, rows, cols)
        monkeypatch.undo()
        assert all(any(factor.coeffs) for factor in products), (case, rows, cols)
        assert det == perm_det(arc, rows, cols), (case, rows, cols)
        _same(det, subset_dp_det(arc, rows, cols).coeffs)
        if zero_row:
            _same(det, TruncatedSeries.zero(precision).coeffs)
        sizes[size, fractional, zero_row] += 1
    assert min(sizes.values()) >= 10 and len(sizes) == 12


def test_rank_matches_gauss_jordan():
    # random int and Fraction matrices up to 6 x 12, many of them rank
    # deficient (a product through a narrower middle) or with zero rows;
    # the pivots are the columns taken greedily from the left, each one
    # raising the rank of those taken before it
    rng = random.Random(29)
    ranks = collections.Counter()
    for case in range(600):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 12)
        inner = rng.randint(0, min(nrows, ncols))

        def entry():
            if case % 2:
                return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            return rng.randint(-9, 9)

        left = [[entry() for _ in range(inner)] for _ in range(nrows)]
        right = [[entry() for _ in range(ncols)] for _ in range(inner)]
        const = [
            [sum((left[i][u] * right[u][j] for u in range(inner)), 0) for j in range(ncols)]
            for i in range(nrows)
        ]
        if case % 3 == 0:
            const = [[entry() for _ in range(ncols)] for _ in range(nrows)]
        if case % 7 == 0:
            const[rng.randrange(nrows)] = [0] * ncols
        expected = rank_by_gauss_jordan(const)
        pivots = _pivot_columns(const)
        assert len(pivots) == expected, const
        greedy = []
        for j in range(ncols):
            if rank_by_gauss_jordan([[row[c] for c in greedy + [j]] for row in const]) > len(greedy):
                greedy.append(j)
        assert pivots == greedy, const
        ranks[expected < min(nrows, ncols)] += 1
    assert ranks[True] >= 150 and ranks[False] >= 150


def test_series_text_round_trip():
    for text in ["0", "1", "t", "t^2+t^3", "2*t^3", "1/2*t", "1-t", "-t+3"]:
        s = parse_series(text, 8)
        assert parse_series(format_series(s), 8) == s
    assert format_series(parse_series("t^2+t^3", 8)) == "t^2+t^3"
    assert format_series(parse_series("0", 8)) == "0"
    with pytest.raises(ValueError):
        parse_series("t^", 8)
    with pytest.raises(ValueError):
        parse_series("", 8)


def test_matrix_normalizes_precision():
    m = SeriesMatrix([[parse_series("t", 3), parse_series("1", 9)]])
    assert m.precision == 3
    assert m.nrows == 1 and m.ncols == 2
    assert column_slice(m, 1).ncols == 1
    assert m.constant_term() == [[0, 1]]
    with pytest.raises(ValueError):
        SeriesMatrix([])


def test_matrix_entries_must_be_series():
    with pytest.raises(ValueError):
        SeriesMatrix([[1, 2]])
    with pytest.raises(ValueError):
        SeriesMatrix([[TruncatedSeries([1]), "x"]])


def test_big_cell_arc_appends_antidiagonal():
    affine = parse_arc_matrix("t,0; 0,1", 6)
    arc = big_cell_arc(affine)
    assert arc.ncols == 4
    assert arc.entries[0][3] == TruncatedSeries.one(6)
    assert arc.entries[1][2] == TruncatedSeries.one(6)
    assert arc.entries[0][2] == TruncatedSeries.zero(6)


def test_determinants_match_permutation_expansion():
    rng = random.Random(17)

    def draw_coefficient(fractional):
        if fractional:
            return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        return rng.randint(-3, 3)

    for case in range(60):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        entries = [
            [
                TruncatedSeries([draw_coefficient(case % 2) for _ in range(7)])
                for _ in range(ncols)
            ]
            for _ in range(nrows)
        ]
        m = SeriesMatrix(entries)
        size = rng.randint(1, min(nrows, ncols))
        rows = tuple(sorted(rng.sample(range(nrows), size)))
        cols = tuple(sorted(rng.sample(range(ncols), size)))
        assert series_det(m, rows, cols) == perm_det(m, rows, cols)


def test_profile_frozen_arcs():
    cases = [
        ("t^2,0,0,1; 0,t,1,0", "2 2; 2 1"),
        ("t^2+t^3,t^2,0,1; t^2,t,1,0", "2 2; 2 1"),
        ("0,t^2,0,1; t^2,0,1,0", "2 2; 2 2"),
        ("t^3,t^2,0,1; t^2,0,1,0", "2 2; 2 2"),
    ]
    for text, expected in cases:
        for prec in (8, 16):
            arc = parse_arc_matrix(text, prec)
            beta = invariant_factor_profile(arc)
            assert beta == parse_plane_partition(expected, G24), (text, prec)


def test_truly_infinite_contact_is_reported_as_precision():
    # the centre of the big cell has infinite contact with every rectangle
    # condition; truncated data cannot prove that, so the honest answer is
    # a precision failure at the first unresolved position
    arc = parse_arc_matrix("0,0,0,1; 0,0,1,0", 8)
    with pytest.raises(PrecisionExceeded) as info:
        invariant_factor_profile(arc)
    assert info.value.position == (1, 1)
    assert info.value.bound == 9


def test_profile_matches_naive_recomputation():
    rng = random.Random(23)
    shapes = [GrassmannShape(2, 4), GrassmannShape(2, 5), GrassmannShape(3, 5)]
    for shape in shapes:
        for _ in range(10):
            beta = random_plane_partition(shape, 3, rng)
            arc = generic_arc(beta, precision=16, seed=rng.randrange(10**6))
            assert naive_alpha(arc) == essential_profile(invariant_factor_profile(arc))


def test_profile_at_the_precision_boundary():
    """Big-cell arcs with sparse random entries at precision 0..4: the
    profile equals the exhaustive recomputation, or it raises at the first
    row-major position whose order is only the lower bound precision + 1."""
    rng = random.Random(31)
    coefficients = [0, 0, 0, 0, 1, -1, 2]
    outcomes = {"equal": 0, "raised": 0}
    for _ in range(400):
        k, n = rng.choice([(1, 3), (2, 4), (2, 5), (3, 5), (3, 6)])
        prec = rng.randint(0, 4)
        entries = [
            [TruncatedSeries([rng.choice(coefficients) for _ in range(prec + 1)]) for _ in range(n - k)]
            for _ in range(k)
        ]
        arc = big_cell_arc(SeriesMatrix(entries))
        expected = naive_alpha(arc)
        unresolved = [
            (a, b)
            for a, row in enumerate(expected, start=1)
            for b, order in enumerate(row, start=1)
            if order > prec
        ]
        if unresolved:
            with pytest.raises(PrecisionExceeded) as info:
                invariant_factor_profile(arc)
            assert info.value.position == unresolved[0]
            assert info.value.bound == prec + 1
            outcomes["raised"] += 1
        else:
            assert essential_profile(invariant_factor_profile(arc)) == expected
            outcomes["equal"] += 1
    assert min(outcomes.values()) >= 50, outcomes


@st.composite
def moved_big_cell_arcs(draw):
    """g . (X | D) on G(2,4), G(2,5), G(3,5) or G(3,6) at precision 0..4.

    X is sparse, with int or with Fraction coefficients, some of its columns
    zero and many of its entries Fraction zeros in the second case.  g = L U
    is an integer matrix with L unit lower and U unit upper triangular, not
    both the identity, so g is unimodular but not diagonal: the last block
    g D is a unit but not antidiagonal."""
    k, n = draw(st.sampled_from([(2, 4), (2, 5), (3, 5), (3, 6)]))
    precision = draw(st.integers(0, 4))
    fractional = draw(st.booleans())
    zero = Fraction(0) if fractional else 0
    nonzero = [Fraction(1, 2), Fraction(-3, 2), Fraction(2)] if fractional else [1, -1, 2]
    coefficient = st.sampled_from([zero] * 3 + nonzero)
    coefficients = st.lists(coefficient, min_size=precision + 1, max_size=precision + 1)
    zero_columns = draw(st.sets(st.integers(0, n - k - 1), max_size=n - k - 1))
    affine = [
        [
            TruncatedSeries([zero] * (precision + 1) if j in zero_columns else draw(coefficients))
            for j in range(n - k)
        ]
        for _ in range(k)
    ]
    lower = [[1 if i == j else draw(st.integers(-2, 2)) if i > j else 0 for j in range(k)] for i in range(k)]
    upper = [[1 if i == j else draw(st.integers(-2, 2)) if i < j else 0 for j in range(k)] for i in range(k)]
    if all(lower[i][j] == upper[j][i] == 0 for i in range(k) for j in range(i)):
        lower[1][0] = 1
    g = [[sum(lower[i][u] * upper[u][j] for u in range(k)) for j in range(k)] for i in range(k)]
    arc = big_cell_arc(SeriesMatrix(affine))
    return SeriesMatrix(
        [
            [
                sum((g[i][u] * arc.entries[u][c] for u in range(1, k)), g[i][0] * arc.entries[0][c])
                for c in range(n)
            ]
            for i in range(k)
        ]
    )


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(moved_big_cell_arcs())
def test_profile_matches_naive_recomputation_on_moved_sparse_arcs(arc):
    """The profile skips minors with a column that vanishes on their rows;
    on sparse arcs whose unit block is mixed by rows, it still equals the
    exhaustive recomputation, or raises at the first row-major position
    whose order is only the lower bound precision + 1."""
    expected = naive_alpha(arc)
    unresolved = [
        (a, b)
        for a, row in enumerate(expected, start=1)
        for b, order in enumerate(row, start=1)
        if order > arc.precision
    ]
    if unresolved:
        with pytest.raises(PrecisionExceeded) as info:
            invariant_factor_profile(arc)
        assert info.value.position == unresolved[0]
        assert info.value.bound == arc.precision + 1
    else:
        assert essential_profile(invariant_factor_profile(arc)) == expected


def test_profile_builds_no_minor_with_a_column_zero_on_its_rows(monkeypatch):
    """Seeded generic arcs of G(3,6) and G(4,8), as they are and Borel
    translated: no minor the profile builds has a column that is the zero
    series on each of its rows, and the profile is still the stratum."""
    rng = random.Random(79)
    plain_det = series_module.series_det
    calls, dead = [], []

    def checked_det(matrix, rows, cols):
        calls.append(cols)
        if any(not any(any(matrix.entries[r][c].coeffs) for r in rows) for c in cols):
            dead.append((rows, cols))
        return plain_det(matrix, rows, cols)

    for k, n in [(3, 6), (4, 8)]:
        for _ in range(4):
            beta = random_plane_partition(GrassmannShape(k, n), 2, rng)
            arc = generic_arc(beta, precision=10, seed=rng.randrange(10**6))
            for moved in (arc, borel_translate(arc, seed=rng.randint(1, 4))):
                calls.clear()
                monkeypatch.setattr(series_module, "series_det", checked_det)
                profile = invariant_factor_profile(moved)
                monkeypatch.undo()
                assert not dead, (format_arc_matrix(moved), dead[:3])
                assert calls and profile == beta, format_arc_matrix(moved)


def test_profile_requires_an_arc_in_the_big_cell():
    with pytest.raises(NotAnArc):
        invariant_factor_profile(parse_arc_matrix("t,0,0,0; 0,1,0,0", 8))
    with pytest.raises(NotInBigCell):
        invariant_factor_profile(parse_arc_matrix("1,0,0,0; 0,0,1,t", 8))


def test_profile_precision_exhaustion():
    arc = parse_arc_matrix("t^9,0,0,1; 0,t,1,0", 8)
    with pytest.raises(PrecisionExceeded) as info:
        invariant_factor_profile(arc)
    assert info.value.bound >= 9
    assert invariant_factor_profile(
        parse_arc_matrix("t^9,0,0,1; 0,t,1,0", 16)
    ) == parse_plane_partition("9 9; 9 1", G24)


def test_plucker_orders_of_generic_arc():
    arc = parse_arc_matrix("t^2+t^3,t^2,0,1; t^2,t,1,0", 8)
    expected = {
        (1, 2): 3,
        (1, 3): 2,
        (1, 4): 2,
        (2, 3): 2,
        (2, 4): 1,
        (3, 4): 0,
    }
    # the arc is generic for its stratum, so the library's tropical orders agree
    beta = parse_plane_partition("2 2; 2 1", G24)
    for entries, order in expected.items():
        assert plucker_order_of_arc(arc, entries) == order
        assert plucker_ord(beta, entries) == order
    # the non-generic representative of the same stratum degenerates [1,4]
    special = parse_arc_matrix("t^2,0,0,1; 0,t,1,0", 8)
    assert plucker_order_of_arc(special, (1, 4)) == special.precision + 1 == 9
    for entries in [(1.5, 4), (True, 4), (4, 1), (1, 2, 3), (0, 4), (1, 5)]:
        with pytest.raises(ValueError):
            plucker_order_of_arc(arc, entries)
        with pytest.raises(ValueError):
            plucker_ord(beta, entries)


def test_is_generic_form():
    beta = parse_plane_partition("2 2; 2 1", G24)
    assert is_generic_form(parse_arc_matrix("t^2+t^3,t^2,0,1; t^2,t,1,0", 8), beta)
    assert not is_generic_form(parse_arc_matrix("t^2,0,0,1; 0,t,1,0", 8), beta)
    assert not is_generic_form(
        parse_arc_matrix("t^2+t^3,t^2,0,1; t^2,t,1,0", 8),
        parse_plane_partition("2 2; 2 2", G24),
    )
    rng = random.Random(41)
    for shape in shapes_up_to(5):
        beta = random_plane_partition(shape, 3, rng)
        assert is_generic_form(generic_arc(beta, seed=7), beta)


def test_borel_translate_preserves_profiles():
    arc = parse_arc_matrix("1,0,t,0; 0,1,0,t", 8)
    with pytest.raises(NotInBigCell):
        invariant_factor_profile(arc)
    moved = borel_translate(arc)
    assert invariant_factor_profile(moved) == PlanePartition.zero(G24)
    assert borel_translate(arc, seed=0) == borel_translate(arc, seed=0)
    generic = parse_arc_matrix("t^2+t^3,t^2,0,1; t^2,t,1,0", 8)
    for seed in (0, 1, 2):
        assert invariant_factor_profile(
            borel_translate(generic, seed=seed)
        ) == parse_plane_partition("2 2; 2 1", G24)


def test_borel_translate_seeds_must_be_non_negative_ints():
    # the seed is the first shift x tried; a negative one could reach
    # x = -1, where u loses its diagonal 1 + x and is no change of basis
    arc = parse_arc_matrix("1,0,t,0; 0,1,0,t", 8)
    for bad in (-3, True, 1.5, "x", None):
        with pytest.raises(ValueError, match="seed must be a non-negative int"):
            borel_translate(arc, seed=bad)


def test_borel_translate_rejects_matrices_without_fewer_rows_than_columns():
    # the k < n check of invariant_factor_profile, not an unchanged matrix
    for text in ["1", "1, 0; 0, 1", "1; t"]:
        matrix = parse_arc_matrix(text, 4)
        message = f"a {matrix.nrows} x {matrix.ncols} matrix does not present a proper subspace"
        for check in (_check_big_cell, borel_translate):
            with pytest.raises(NotAnArc, match=message):
                check(matrix)


def _generic_arcs(rng):
    """Seeded generic arcs on G(2,4) .. G(4,8), each with its stratum of
    k to 3k boxes, so at most the precision 12 on the diagonal."""
    for k, n in [(2, 4), (2, 5), (3, 5), (3, 6), (4, 7), (4, 8)]:
        for _ in range(3):
            beta = grown_plane_partition(PlanePartition.zero(GrassmannShape(k, n)), rng.randint(k, 3 * k), rng)
            yield beta, generic_arc(beta, precision=12, seed=rng.randrange(10**6))


def test_row_operations_keep_the_profile():
    """g . (X | D) for g in GL_k(Z[t]) with det g(0) != 0 is the same arc in
    other coordinates: still in big-cell form, with the same profile."""
    rng = random.Random(67)
    for beta, arc in _generic_arcs(rng):
        k, prec = arc.nrows, arc.precision
        g0 = [[0]]
        while len(_pivot_columns(g0)) < k:
            g0 = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
        g = [
            [TruncatedSeries([g0[i][u], rng.randint(-2, 2), rng.randint(-2, 2)] + [0] * (prec - 2)) for u in range(k)]
            for i in range(k)
        ]
        moved = SeriesMatrix(
            [
                [
                    sum((g[i][u] * arc.entries[u][c] for u in range(1, k)), g[i][0] * arc.entries[0][c])
                    for c in range(arc.ncols)
                ]
                for i in range(k)
            ]
        )
        _check_big_cell(moved)
        assert invariant_factor_profile(moved) == invariant_factor_profile(arc) == beta


def test_substituting_t_squared_doubles_the_profile():
    """t -> t^2 sends the coefficient of t^i to t^(2i) at precision 2P and
    every vanishing order to twice itself, so the profile doubles."""
    rng = random.Random(71)
    for beta, arc in _generic_arcs(rng):
        prec = 2 * arc.precision

        def substituted(series):
            coeffs = [0] * (prec + 1)
            coeffs[::2] = series.coeffs
            return TruncatedSeries(coeffs)

        squared = SeriesMatrix([[substituted(e) for e in row] for row in arc.entries])
        doubled = PlanePartition([[2 * e for e in row] for row in beta.rows], beta.shape)
        assert invariant_factor_profile(squared) == doubled


def _outcome(call, *args, **kwargs):
    """The returned value, or the type and message of the raised error."""
    try:
        return call(*args, **kwargs)
    except (NotAnArc, NotInBigCell) as exc:
        return type(exc), str(exc)


def _seeded_arcs(rng):
    """Arcs on G(2,4) .. G(4,8): generic arcs, the same with shuffled columns
    (often out of the big cell), sparse random matrices with small integer
    and half-integer coefficients, and matrices whose constant term has
    rank k-1 (not arcs at all)."""
    coefficients = [0, 0, 0, 1, -1, 2, Fraction(1, 2)]
    for k, n in [(2, 4), (2, 5), (3, 5), (3, 6), (4, 7), (4, 8)]:
        shape = GrassmannShape(k, n)
        for _ in range(4):
            beta = random_plane_partition(shape, 2, rng)
            arc = generic_arc(beta, precision=10, seed=rng.randrange(10**6))
            yield arc
            perm = rng.sample(range(n), n)
            yield SeriesMatrix([[row[p] for p in perm] for row in arc.entries])
            yield SeriesMatrix(
                [
                    [TruncatedSeries([rng.choice(coefficients) for _ in range(5)]) for _ in range(n)]
                    for _ in range(k)
                ]
            )
            left = [[rng.randint(-2, 2) for _ in range(k - 1)] for _ in range(k)]
            right = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k - 1)]
            yield SeriesMatrix(
                [
                    [
                        TruncatedSeries(
                            [sum(left[i][u] * right[u][j] for u in range(k - 1))]
                            + [rng.choice(coefficients) for _ in range(4)]
                        )
                        for j in range(n)
                    ]
                    for i in range(k)
                ]
            )


def _translate_outcome(translate, arc, seed):
    """NotAnArc when the translate raises it, or else the profile of the
    translate, which must lie in the big cell: the plane partition, or the
    position and bound of the PrecisionExceeded it raises."""
    try:
        moved = translate(arc, seed=seed)
    except NotAnArc:
        return NotAnArc
    check_big_cell_by_series_det(moved)
    try:
        return invariant_factor_profile(moved)
    except PrecisionExceeded as exc:
        return PrecisionExceeded, exc.position, exc.bound


def test_big_cell_checks_agree_with_series_determinants():
    """The constant-term checks decide exactly as the series determinants
    they replaced, and the column-addition translate ends as the random
    translate does: both raise the same error, or both reach the big cell
    with the same profile."""
    checks, translates = set(), set()
    for arc in _seeded_arcs(random.Random(59)):
        got = _outcome(_check_big_cell, arc)
        assert got == _outcome(check_big_cell_by_series_det, arc)
        checks.add(got if got is None else got[0])
        for seed in (0, 1):
            moved = _translate_outcome(borel_translate, arc, seed)
            assert moved == _translate_outcome(borel_translate_by_series_det, arc, seed)
            translates.add(moved if isinstance(moved, type) else type(moved))
    assert checks == {None, NotAnArc, NotInBigCell}
    # arcs translate; matrices of rank-deficient constant term raise NotAnArc
    assert translates == {PlanePartition, NotAnArc}


def _out_of_big_cell(arc, rng):
    """A big-cell arc (X | D) right-multiplied by an upper-triangular integer
    matrix that leaves the big cell: the column of D with its unit in row r
    becomes a times itself minus an earlier column whose constant term is a
    in row r.  None when no entry of X is a unit, since then no such change
    leaves the big cell."""
    k, n = arc.nrows, arc.ncols
    const = arc.constant_term()
    units = [(r, i) for r in range(k) for i in range(n - k) if const[r][i]]
    if not units:
        return None
    r, i = rng.choice(units)
    j = n - 1 - r
    return SeriesMatrix([row[:j] + (row[j] * const[r][i] - row[i],) + row[j + 1 :] for row in arc.entries])


def test_borel_translate_is_total():
    """Every arc reaches the big cell from every seed, a large one included,
    by a change of its last k columns only, with the random translate's
    profile; nothing but NotAnArc is raised, and only for non-arcs."""
    rng = random.Random(61)
    arcs = list(_seeded_arcs(rng))
    moved_out = 0
    for k, n in [(2, 4), (2, 5), (3, 5), (3, 6), (4, 7), (4, 8)]:
        for _ in range(6):
            beta = random_plane_partition(GrassmannShape(k, n), 2, rng)
            arc = _out_of_big_cell(generic_arc(beta, precision=10, seed=rng.randrange(10**6)), rng)
            if arc is not None:
                assert _outcome(_check_big_cell, arc)[0] is NotInBigCell
                arcs.append(arc)
                moved_out += 1
    assert moved_out >= 20
    outcomes = collections.Counter()
    for arc in arcs:
        k, n = arc.nrows, arc.ncols
        expected = _translate_outcome(borel_translate_by_series_det, arc, 0)
        for seed in (0, 1, 2, 10**9):
            got = _translate_outcome(borel_translate, arc, seed)
            assert got == expected, (format_arc_matrix(arc), seed)
            if got is not NotAnArc:
                moved = borel_translate(arc, seed=seed)
                assert [row[: n - k] for row in moved.entries] == [row[: n - k] for row in arc.entries]
            outcomes[got if got is NotAnArc else type(got)] += 1
    assert min(outcomes.values()) >= 40, outcomes


def test_profile_read_off_an_arc_outside_the_big_cell_is_that_of_its_translate():
    """The Borel translation changes no order that the profile reads: an
    upper-triangular change of columns keeps the span of every column
    prefix, so the orders of the minors of each prefix do not move.  The
    rectangle orders read off an arc as given, outside the big cell, are
    those of the profile of its translate; where one lies above the
    precision, the profile raises PrecisionExceeded at the first such
    position, row by row, with the bound precision + 1."""
    rng = random.Random(71)
    outcomes = collections.Counter()
    for k, n in [(2, 4), (2, 5), (3, 5), (3, 6), (4, 7), (4, 8)]:
        for _ in range(8):
            beta = random_plane_partition(GrassmannShape(k, n), 2, rng)
            arc = generic_arc(beta, precision=10, seed=rng.randrange(10**6))
            for precision in (10, essential_profile(beta)[0][0] - 1):
                if precision < 0:
                    continue
                truncated = SeriesMatrix([[e.truncate(precision) for e in row] for row in arc.entries])
                moved = _out_of_big_cell(truncated, rng)
                if moved is None:
                    continue
                assert _outcome(_check_big_cell, moved)[0] is NotInBigCell
                alpha = naive_alpha(moved)
                above = [(a, b) for a, row in enumerate(alpha, 1) for b, d in enumerate(row, 1) if d > precision]
                try:
                    got = essential_profile(invariant_factor_profile(borel_translate(moved)))
                except PrecisionExceeded as exc:
                    assert above and (exc.position, exc.bound) == (above[0], precision + 1), alpha
                    outcomes["raised"] += 1
                else:
                    assert not above and got == alpha
                    outcomes["equal"] += 1
    assert outcomes["equal"] >= 40 and outcomes["raised"] >= 20, outcomes


def test_borel_translate_skips_the_roots_of_the_last_block():
    # J = (1, 2) and C = I, and the last constant block B = diag(0, -1)
    # gives det(B + x I) = x (x - 1): shifts 0 and 1 stay out of the big
    # cell, so seeds 0, 1 and 2 translate by x = 2 and seed 3 by x = 3
    arc = parse_arc_matrix("1, 0, t, 0; 0, 1, 0, t-1", 6)
    for seed, x in [(0, 2), (1, 2), (2, 2), (3, 3)]:
        moved = borel_translate(arc, seed=seed)
        assert moved == parse_arc_matrix(f"1, 0, {x}+t, 0; 0, 1, 0, {x - 1}+t", 6), seed
        assert invariant_factor_profile(moved) == PlanePartition.zero(G24)


def test_parsed_integral_coefficients_are_ints():
    s = parse_series("2*t+1/2", 3)
    assert s.coeffs == (Fraction(1, 2), 2, 0, 0)
    assert [type(c) for c in s.coeffs] == [Fraction, int, int, int]
    # integral sums of fractions and exact quotients are ints too
    assert [type(c) for c in parse_series("1/2*t+1/2*t+4/2", 2).coeffs] == [int] * 3
    arc = parse_arc_matrix("t^2+t^3, t^2, 0, 1; t^2, t, 1, 0", 6)
    assert all(type(c) is int for row in arc.entries for e in row for c in e.coeffs)


def test_coefficients_are_kept_as_computed():
    halves = TruncatedSeries([Fraction(1, 2), Fraction(3, 2)])
    doubled = halves * 2
    assert doubled == TruncatedSeries([1, 3]) and hash(doubled) == hash(TruncatedSeries([1, 3]))
    assert doubled.coeffs == (1, 3) and type(doubled.coeffs[0]) is Fraction
    assert format_series(halves) == "1/2+3/2*t"
    assert format_series(TruncatedSeries([Fraction(-4, 2), 0, Fraction(-1, 3)])) == "-2-1/3*t^2"


def test_arc_matrix_text_round_trip():
    for text in ["t^2,0,0,1; 0,t,1,0", "1,0; 0,1"]:
        arc = parse_arc_matrix(text, 8)
        assert parse_arc_matrix(format_arc_matrix(arc), 8) == arc
    with pytest.raises(ValueError):
        parse_arc_matrix("t,0; 0", 8)


def test_minor_order_helper():
    arc = parse_arc_matrix("t^2,0,0,1; 0,t,1,0", 8)
    assert series_det(arc, (0, 1), (0, 1)).order() == 3
    assert series_det(arc, (0, 1), (0, 3)).order() == arc.precision + 1 == 9
