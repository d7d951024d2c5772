"""Partitions in a k x (n-k) box and the Schubert combinatorics built on them.

Conventions: a point of the Grassmannian G(k, n) is a k-dimensional subspace
of an n-dimensional space.  Schubert varieties are indexed by partitions
whose diagram fits in a box with k rows and n-k columns.  Multi-indexes
(strictly increasing k-tuples in [1, n]) label both torus-fixed points and
Pluecker coordinates.  Matrix rows and columns in minor labels are 1-based
throughout this module; they are combinatorial labels, not array offsets.
"""

from __future__ import annotations

from collections.abc import Iterator


class _Value:
    """An immutable value: a subclass defines ``_args()``, the arguments that
    rebuild it, and compares, hashes and pickles through them."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), self._args()

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._args() == other._args()

    def __hash__(self) -> int:
        return hash(self._args())


class GrassmannShape(_Value):
    """Ambient shape: G(k, n) with 1 <= k < n. The box has k rows, n-k columns."""

    __slots__ = ("k", "n")

    def __init__(self, k: int, n: int):
        if type(k) is not int or type(n) is not int:
            raise ValueError("shape parameters must be integers")
        if not 1 <= k < n:
            raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)

    def _args(self) -> tuple:
        return (self.k, self.n)

    @property
    def cols(self) -> int:
        return self.n - self.k

    def __repr__(self) -> str:
        return f"GrassmannShape({self.k}, {self.n})"


class Partition(_Value):
    """A partition whose diagram fits in the box of ``shape``.

    Parts are ints, weakly decreasing; trailing zeros are stripped, so the
    empty partition has ``parts == ()``, and a zero before a positive part
    is rejected.
    """

    __slots__ = ("parts", "shape")

    def __init__(self, parts, shape: GrassmannShape):
        cleaned = tuple(parts)
        if any(type(p) is not int for p in cleaned):
            raise ValueError(f"parts must be integers: {parts!r}")
        while cleaned and not cleaned[-1]:
            cleaned = cleaned[:-1]
        if any(p < 0 for p in cleaned):
            raise ValueError(f"negative part in {parts!r}")
        if any(cleaned[i] < cleaned[i + 1] for i in range(len(cleaned) - 1)):
            raise ValueError(f"parts not weakly decreasing: {parts!r}")
        if len(cleaned) > shape.k:
            raise ValueError(f"{parts!r} has more than k={shape.k} parts")
        if cleaned and cleaned[0] > shape.cols:
            raise ValueError(f"{parts!r} does not fit in {shape.cols} columns")
        object.__setattr__(self, "parts", cleaned)
        object.__setattr__(self, "shape", shape)

    def _args(self) -> tuple:
        return (self.parts, self.shape)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)}, {self.shape!r})"

    def __len__(self) -> int:
        return len(self.parts)

    def __bool__(self) -> bool:
        return bool(self.parts)

    @property
    def size(self) -> int:
        """Number of boxes; equals the codimension of the Schubert variety."""
        return sum(self.parts)

    def part(self, i: int) -> int:
        """The i-th part, 1-based, zero beyond the last row."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def has_cell(self, i: int, j: int) -> bool:
        return 1 <= i and 1 <= j <= self.part(i)

    def cells(self) -> Iterator[tuple[int, int]]:
        """All diagram cells (row, column), 1-based, row-major."""
        for i, p in enumerate(self.parts, start=1):
            for j in range(1, p + 1):
                yield (i, j)

    def contains(self, other: "Partition") -> bool:
        """Diagram containment: every cell of ``other`` is a cell of self.

        It reverses the inclusion of Schubert varieties: the variety of self
        sits inside the variety of other exactly when self contains other."""
        if self.shape != other.shape:
            raise ValueError("partitions live in different shapes")
        return all(self.part(i) >= other.part(i) for i in range(1, len(other) + 1))


def all_partitions(shape: GrassmannShape) -> Iterator[Partition]:
    """All nonempty partitions in the box, by increasing first part, each
    followed by its extensions by further rows, as (1), (1,1), (2), (2,1),
    (2,2) on G(2, 4); with the empty one, binomial(n, k) in all.
    """

    def rec(prefix: list[int], bound: int, rows_left: int) -> Iterator[tuple[int, ...]]:
        yield tuple(prefix)
        if rows_left == 0:
            return
        for p in range(1, bound + 1):
            prefix.append(p)
            yield from rec(prefix, p, rows_left - 1)
            prefix.pop()

    for parts in rec([], shape.cols, shape.k):
        if parts:
            yield Partition(parts, shape)


def _check_multi_index(entries, shape: GrassmannShape) -> tuple[int, ...]:
    """The entries as a tuple, once they are k ints strictly increasing in
    [1, n]; anything else raises ValueError."""
    entries = tuple(entries)
    k, n = shape.k, shape.n
    if any(type(e) is not int for e in entries):
        raise ValueError(f"multi-index entries must be integers: {entries!r}")
    if len(entries) != k:
        raise ValueError(f"multi-index must have k={k} entries, got {entries!r}")
    if entries[0] < 1 or entries[-1] > n:
        raise ValueError(f"multi-index entries out of range [1, {n}]: {entries!r}")
    if any(entries[s] >= entries[s + 1] for s in range(k - 1)):
        raise ValueError(f"multi-index not strictly increasing: {entries!r}")
    return entries


def schubert_conditions(lam: Partition) -> list[tuple[int, int]]:
    """Southeast corners (a, b) of the diagram, northeast to southwest.

    Each corner imposes the rank condition cutting out the Schubert variety
    of the rectangle with a rows and b columns; the variety of lam is the
    intersection of these.  Empty partition: no corners.
    """
    corners = []
    for a in range(1, len(lam.parts) + 1):
        b = lam.parts[a - 1]
        if b > lam.part(a + 1):
            corners.append((a, b))
    return corners


def outside_corners(lam: Partition) -> list[tuple[int, int]]:
    """Corner list extended by virtual corners on the box boundary.

    Prepends (0, n-k) when no proper corner reaches the last column and
    appends (k, 0) when none reaches the last row, so consecutive entries
    always step strictly down in b and up in a.  The full box yields the
    single corner (k, n-k); the empty partition yields both virtual corners.
    """
    corners = schubert_conditions(lam)
    k, c = lam.shape.k, lam.shape.cols
    if not any(b == c for _, b in corners):
        corners.insert(0, (0, c))
    if not any(a == k for a, _ in corners):
        corners.append((k, 0))
    return corners


def singular_components(lam: Partition) -> list[Partition]:
    """Indexing partitions of the components of the singular locus.

    For each outside corner strictly between the first and last, enlarge the
    diagram by the rectangle whose southeast corner sits one step further out
    diagonally.  A Schubert variety is smooth exactly when this list is
    empty; the full box even has an empty extended corner list beyond its
    single proper corner.
    """
    ext = outside_corners(lam)
    comps = []
    for a, b in ext[1:-1]:
        parts = [max(lam.part(i), b + 1) for i in range(1, a + 2)]
        parts += [lam.part(i) for i in range(a + 2, lam.shape.k + 1)]
        comps.append(Partition(parts, lam.shape))
    return comps


# -- Minor labels and their correspondence with multi-indexes ---------------
#
# On the opposite big cell a subspace is the row span of (X | D) with X of
# size k x (n-k) and D the k x k antidiagonal unit matrix.  Every Pluecker
# coordinate restricts, up to sign, to a minor of X; the dictionary from
# multi-indexes to minor labels is below.  A minor label is a pair
# (rows, cols) of equal-length strictly increasing tuples, 1-based.


def minor_of_multi_index(entries, shape: GrassmannShape) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Minor label (rows, cols) of X matching a Pluecker multi-index.

    Columns are the entries at most n-k; rows are those not knocked out by
    the entries beyond n-k via i = n+1-entry.  The empty minor (the unit
    constant) corresponds to the multi-index [n-k+1, ..., n].
    """
    k, n = shape.k, shape.n
    entries = _check_multi_index(entries, shape)
    cols = tuple(e for e in entries if e <= n - k)
    dropped = {n + 1 - e for e in entries if e > n - k}
    rows = tuple(i for i in range(1, k + 1) if i not in dropped)
    return rows, cols


# -- Text formats ------------------------------------------------------------


def _read_natural(token: str) -> int:
    """The int written by a run of ASCII digits, spaces around it allowed;
    anything else raises ValueError.  Partition parts, plane partition
    entries, multi-index entries and series exponents are read here, and
    series coefficients match the same digit runs: ``int`` alone would also
    take "1_0", "+2" and non-ASCII digits such as "\u0663"."""
    digits = token.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a run of digits: {token!r}")
    return int(digits)


def _check_natural(value, what: str) -> None:
    """Raise ValueError naming ``what`` unless the value is a non-negative
    int; a bool or a float is not one."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{what} must be a non-negative int, got {value!r}")


def parse_partition(text: str, shape: GrassmannShape) -> Partition:
    """Parse "3,1,1"; blank or "0" gives the empty partition."""
    text = text.strip()
    if text in ("", "0"):
        return Partition((), shape)
    try:
        parts = [_read_natural(p) for p in text.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse partition from {text!r}") from None
    return Partition(parts, shape)


def format_partition(lam: Partition) -> str:
    return ",".join(str(p) for p in lam.parts) if lam.parts else "0"


def parse_multi_index(text: str, shape: GrassmannShape) -> tuple[int, ...]:
    """Parse "[1,3,6]" (brackets optional) and validate against the shape."""
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        text = text[1:-1]
    try:
        entries = tuple(_read_natural(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse multi-index from {text!r}") from None
    return _check_multi_index(entries, shape)


def format_multi_index(entries) -> str:
    return "[" + ",".join(str(e) for e in entries) + "]"
