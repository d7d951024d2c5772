"""Text parsers: malformed input of any kind raises ValueError and nothing
else, and parsing what a formatter wrote gives back the same value."""

import contextlib
import io
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schubert_arcs import (
    INF,
    GrassmannShape,
    Partition,
    PlanePartition,
    SeriesMatrix,
    TruncatedSeries,
)
from schubert_arcs.cli import main
from schubert_arcs.partitions import (
    format_multi_index,
    format_partition,
    parse_multi_index,
    parse_partition,
)
from schubert_arcs.plane_partitions import format_plane_partition, parse_ext, parse_plane_partition
from schubert_arcs.series import (
    format_arc_matrix,
    format_series,
    parse_arc_matrix,
    parse_series,
)

G24 = GrassmannShape(2, 4)

# text over the alphabet of the formats, drawn as lexemes: whole numbers
# (zero included), "inf", and single punctuation characters
FORMAT_TEXT = st.lists(
    st.one_of(st.integers(0, 20).map(str), st.sampled_from(list("t^+-*/,;[] ") + ["inf"])),
    max_size=24,
).map("".join)

PARSERS = (
    lambda text: parse_series(text, 6),
    lambda text: parse_arc_matrix(text, 6),
    lambda text: parse_plane_partition(text, G24),
    lambda text: parse_partition(text, G24),
    lambda text: parse_multi_index(text, G24),
)


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(FORMAT_TEXT)
@example("1/0")
@example("0/0")
@example("t+3/0*t^2, 1")
def test_parsers_return_or_raise_value_error(text):
    for parse in PARSERS:
        try:
            parse(text)
        except ValueError:
            pass


# whole numbers in Python literal syntax that int() reads but no format writes
LITERAL_ONLY = ("1_0", "+2", "\u0663", "\uff11", "0x1", "1.0", "-0")


@pytest.mark.parametrize("token", LITERAL_ONLY)
def test_numbers_are_ascii_digit_runs(token):
    cases = [
        lambda: parse_ext(token),
        lambda: parse_plane_partition(f"{token} 0; 0 0", G24),
        lambda: parse_partition(f"2,{token}", G24),
        lambda: parse_multi_index(f"[{token},3]", G24),
        lambda: parse_series(f"t^{token}", 6),
        lambda: parse_series(f"1/{token}*t", 6),
    ]
    if token[0] not in "+-":
        # a leading sign is the series' own
        cases.append(lambda: parse_series(f"{token}*t", 6))
    for parse in cases:
        with pytest.raises(ValueError):
            parse()


def test_digit_runs_keep_their_spaces_and_leading_zeros():
    assert parse_ext(" 03 ") == 3
    assert parse_plane_partition(" 2  1 ;1 0 ", G24) == PlanePartition([[2, 1], [1, 0]], G24)
    assert parse_partition("2, 1", G24) == Partition([2, 1], G24)
    assert parse_multi_index("[ 1, 04]", G24) == (1, 4)
    assert parse_series("07*t^02", 3) == TruncatedSeries([0, 0, 7, 0])


def test_literal_syntax_exits_2_on_the_command_line():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["codim", "--k", "2", "--n", "4", "--beta", "1_0 0; 0 0"])
    assert code == 2 and out.getvalue() == ""
    assert err.getvalue() == "error: expected a non-negative integer or 'inf', got '1_0'\n"


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("k", ["codim", "--k", "\u0662", "--n", "4", "--beta", "1 0; 0 0"]),
        ("n", ["codim", "--k", "2", "--n", "+4", "--beta", "1 0; 0 0"]),
        ("prec", ["generic-arc", "--k", "2", "--n", "4", "--beta", "1 0; 0 0", "--prec", "1_0"]),
        ("seed", ["generic-arc", "--k", "2", "--n", "4", "--beta", "1 0; 0 0", "--seed", "+3"]),
        # Random(-s) draws what Random(s) draws: a negative seed was an alias
        ("seed", ["generic-arc", "--k", "2", "--n", "4", "--beta", "1 0; 0 0", "--seed", "-3"]),
        ("prec", ["profile", "--k", "2", "--n", "4", "--arc", "t, 0, 0, 1; 0, t, 1, 0", "--prec", "-1"]),
    ],
)
def test_integer_flags_are_digit_runs_on_the_command_line(flag, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            main(argv)
    assert exc.value.code == 2 and out.getvalue() == ""
    assert f"argument --{flag}: invalid natural value" in err.getvalue()


def test_integer_flags_keep_their_spaces_and_leading_zeros():
    runs = []
    for prec, seed in (("8", "3"), (" 08", "03 ")):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["generic-arc", "--k", "2", "--n", "4", "--beta", "2 1; 1 0",
                         "--prec", prec, "--seed", seed, "--json"])
        assert code == 0
        runs.append(out.getvalue())
    assert runs[0] == runs[1] and '"precision": 8' in runs[0]


# -- parse(format(x)) == x ----------------------------------------------------

ROUND_TRIP = settings(max_examples=200, derandomize=True, database=None, deadline=None)

COEFFICIENTS = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-30, max_value=30, max_denominator=12),
)


@st.composite
def shapes(draw, max_n=7):
    n = draw(st.integers(2, max_n))
    return GrassmannShape(draw(st.integers(1, n - 1)), n)


def series_at(precision):
    return st.lists(COEFFICIENTS, min_size=precision + 1, max_size=precision + 1).map(
        TruncatedSeries
    )


@st.composite
def arc_matrices(draw):
    shape = draw(shapes(max_n=5))
    entry = series_at(draw(st.integers(0, 4)))
    rows = [[draw(entry) for _ in range(shape.n)] for _ in range(shape.k)]
    return SeriesMatrix(rows)


@st.composite
def plane_partitions(draw):
    """Suffix maxima of a random matrix, with inf pillars on a north-west
    partition-shaped region."""
    shape = draw(shapes())
    k, c = shape.k, shape.cols
    rows = [[draw(st.integers(0, 5)) for _ in range(c)] for _ in range(k)]
    for i in reversed(range(k)):
        for j in reversed(range(c)):
            below = rows[i + 1][j] if i + 1 < k else 0
            right = rows[i][j + 1] if j + 1 < c else 0
            rows[i][j] = max(rows[i][j], below, right)
    pillars = sorted((draw(st.integers(0, c)) for _ in range(k)), reverse=True)
    for row, count in zip(rows, pillars):
        row[:count] = [INF] * count
    return PlanePartition(rows, shape)


@st.composite
def partitions(draw):
    shape = draw(shapes())
    parts = draw(st.lists(st.integers(1, shape.cols), max_size=shape.k))
    return Partition(sorted(parts, reverse=True), shape)


@st.composite
def multi_indexes(draw):
    shape = draw(shapes())
    entries = draw(
        st.lists(st.integers(1, shape.n), min_size=shape.k, max_size=shape.k, unique=True)
    )
    return tuple(sorted(entries)), shape


@ROUND_TRIP
@given(st.integers(0, 8).flatmap(series_at))
@example(TruncatedSeries([0, -1, Fraction(1, 2), Fraction(-7, 3)]))
def test_series_round_trip(series):
    assert parse_series(format_series(series), series.precision) == series


@settings(ROUND_TRIP, max_examples=100)
@given(arc_matrices())
def test_arc_matrix_round_trip(arc):
    assert parse_arc_matrix(format_arc_matrix(arc), arc.precision) == arc


@ROUND_TRIP
@given(plane_partitions())
def test_plane_partition_round_trip(beta):
    assert parse_plane_partition(format_plane_partition(beta), beta.shape) == beta


@ROUND_TRIP
@given(partitions())
def test_partition_round_trip(lam):
    assert parse_partition(format_partition(lam), lam.shape) == lam


@ROUND_TRIP
@given(multi_indexes())
def test_multi_index_round_trip(case):
    entries, shape = case
    assert parse_multi_index(format_multi_index(entries), shape) == entries
