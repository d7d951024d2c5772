"""Text parsers: malformed input of any kind raises ValueError and nothing else."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from schubert_arcs import GrassmannShape
from schubert_arcs.partitions import parse_multi_index, parse_partition
from schubert_arcs.plane_partitions import parse_plane_partition
from schubert_arcs.series import parse_arc_matrix, parse_series

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
