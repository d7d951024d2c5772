"""Plane partitions in the k x (n-k) box and the contact-order data they encode.

A plane partition is a matrix of entries from {0, 1, 2, ...} u {inf}, weakly
decreasing along rows and columns.  Such a matrix records, position by
position, the generic invariant-factor data of an arc on the Grassmannian:
entry (i, j) is the jump attached to the rectangle Schubert condition with
corner (i, j).  Diagonal partial sums recover contact orders with the
rectangle varieties themselves, and the whole dictionary between the two
descriptions lives in this module.

Matrix rows are stored as tuples; positions (i, j) in public results are
1-based, matching the labelling of Schubert conditions.
"""

from __future__ import annotations

from collections.abc import Iterator

from .partitions import (
    GrassmannShape, Partition, _check_natural, _read_natural, _Value, schubert_conditions,
)


class Infinity:
    """Saturating infinity: inf + x = inf, inf - x = inf, min(inf, x) = x.

    Subtracting infinity from a finite value is a programming error and
    raises.  Use the module constant INF; all infinities compare equal.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "inf"

    def __eq__(self, other) -> bool:
        return isinstance(other, Infinity)

    def __hash__(self) -> int:
        return hash("schubert_arcs.Infinity")

    def __lt__(self, other) -> bool:
        return False

    def __le__(self, other) -> bool:
        return isinstance(other, Infinity)

    def __gt__(self, other) -> bool:
        return not isinstance(other, Infinity)

    def __ge__(self, other) -> bool:
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __sub__(self, other):
        """inf - x is inf for every x, inf included.

        weight_exponents takes differences of neighbouring entries, and
        along an infinite pillar both are inf.  The exponent stays inf, so
        a path family through that position has infinite total and the
        tropical minimum falls to the families avoiding it.  The exhaustive
        G(2, 4) comparison in tests/test_nash.py, inf pillars included,
        checks the Pluecker orders this gives against the closed forms.
        """
        return self

    def __rsub__(self, other):
        raise ValueError("cannot subtract infinity from a finite value")


INF = Infinity()

ExtNat = int | Infinity


def parse_ext(token: str) -> ExtNat:
    token = token.strip()
    if token == "inf":
        return INF
    try:
        return _read_natural(token)
    except ValueError:
        raise ValueError(f"expected a non-negative integer or 'inf', got {token!r}") from None


def format_ext(value: ExtNat) -> str:
    return "inf" if isinstance(value, Infinity) else str(value)


class PrecisionExceeded(Exception):
    """An order needed exactly is only known as a lower bound.

    ``position`` is the 1-based rectangle position (a, b) whose contact
    order could not be resolved, ``bound`` the surviving lower bound.
    """

    def __init__(self, position: tuple[int, int], bound: int):
        super().__init__(
            f"contact order at rectangle {position} is >= {bound}; "
            "recompute at higher precision"
        )
        self.position = position
        self.bound = bound


class InvalidPlanePartition(ValueError):
    """Raised with the offending 1-based cell when a matrix is not a plane partition."""

    def __init__(self, message: str, cell: tuple[int, int]):
        super().__init__(f"{message} at cell {cell}")
        self.cell = cell


class PlanePartition(_Value):
    """An immutable plane partition in the box of ``shape``.

    The constructor validates, so every instance is genuinely weakly
    decreasing along rows and columns with entries in {0, 1, ...} u {inf}.
    """

    __slots__ = ("rows", "shape")

    def __init__(self, rows, shape: GrassmannShape):
        k, c = shape.k, shape.cols
        rows = tuple(tuple(row) for row in rows)
        if len(rows) != k or any(len(row) != c for row in rows):
            raise InvalidPlanePartition(
                f"expected a {k} x {c} matrix for {shape!r}", (len(rows), 0)
            )
        for i, row in enumerate(rows, start=1):
            for j, entry in enumerate(row, start=1):
                if isinstance(entry, Infinity):
                    continue
                if not isinstance(entry, int) or isinstance(entry, bool) or entry < 0:
                    raise InvalidPlanePartition(
                        f"entry {entry!r} is not a non-negative integer or inf", (i, j)
                    )
        for i in range(k):
            for j in range(c):
                if j + 1 < c and rows[i][j] < rows[i][j + 1]:
                    raise InvalidPlanePartition("row increases", (i + 1, j + 2))
                if i + 1 < k and rows[i][j] < rows[i + 1][j]:
                    raise InvalidPlanePartition("column increases", (i + 2, j + 1))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "shape", shape)

    def _args(self) -> tuple:
        return (self.rows, self.shape)

    @classmethod
    def zero(cls, shape: GrassmannShape) -> "PlanePartition":
        return cls([[0] * shape.cols] * shape.k, shape)

    @classmethod
    def constant(cls, shape: GrassmannShape, value: ExtNat) -> "PlanePartition":
        return cls([[value] * shape.cols] * shape.k, shape)

    def at(self, i: int, j: int) -> ExtNat:
        """Entry at 1-based position (i, j).  A position that is not a pair
        of ints (a bool or a float is not one) raises ValueError, and one
        outside the box IndexError."""
        if type(i) is not int or type(j) is not int:
            raise ValueError(f"position ({i!r}, {j!r}) is not a pair of ints")
        if not (1 <= i <= self.shape.k and 1 <= j <= self.shape.cols):
            raise IndexError(f"position ({i}, {j}) outside the box")
        return self.rows[i - 1][j - 1]

    @property
    def volume(self) -> ExtNat:
        """Sum of all entries; the codimension of the associated arc stratum."""
        return sum(entry for row in self.rows for entry in row)

    @property
    def height(self) -> ExtNat:
        return self.rows[0][0]

    @property
    def is_finite(self) -> bool:
        return not isinstance(self.rows[0][0], Infinity)

    def add_box(self, i: int, j: int) -> "PlanePartition":
        """New plane partition with entry (i, j) raised by one; revalidates."""
        entry = self.at(i, j)
        if isinstance(entry, Infinity):
            raise ValueError(f"cannot add a box on the infinite pillar ({i}, {j})")
        rows = [list(row) for row in self.rows]
        rows[i - 1][j - 1] = entry + 1
        return PlanePartition(rows, self.shape)

    def __repr__(self) -> str:
        return f"PlanePartition({format_plane_partition(self)!r}, {self.shape!r})"


def ord_schubert(beta: PlanePartition, lam: Partition) -> ExtNat:
    """Contact order of a generic arc of the stratum of beta with the
    Schubert variety of lam: the smallest diagonal sum over the corners
    of lam, read off the essential profile.

    The empty partition indexes the whole Grassmannian, whose ideal
    vanishes identically, so it is rejected.
    """
    if beta.shape != lam.shape:
        raise ValueError("plane partition and partition live in different shapes")
    if not lam:
        raise ValueError("contact order with the whole space is undefined")
    alpha = essential_profile(beta)
    return min(alpha[a - 1][b - 1] for a, b in schubert_conditions(lam))


def essential_profile(beta: PlanePartition) -> tuple[tuple[ExtNat, ...], ...]:
    """Matrix of contact orders with all rectangle Schubert varieties:
    entry (i, j) is the diagonal sum of beta starting at (i, j).

    Filled from the bottom-right corner, so each diagonal is summed once:
    a sum is its first entry plus the sum starting one step further down.
    """
    k, c = beta.shape.k, beta.shape.cols
    alpha = [[0] * (c + 1) for _ in range(k + 1)]
    for i in range(k - 1, -1, -1):
        row, below = alpha[i], alpha[i + 1]
        for j in range(c - 1, -1, -1):
            row[j] = beta.rows[i][j] + below[j + 1]
    return tuple(tuple(row[:c]) for row in alpha[:k])


def from_essential(alpha, shape: GrassmannShape) -> PlanePartition:
    """Rebuild the plane partition from its rectangle contact orders.

    Entry (i, j) of the result is alpha[i][j] - alpha[i+1][j+1], reading
    zero outside the box.  The admissibility inequalities a rectangle
    contact profile must satisfy are exactly the statement that these
    differences form a plane partition, so validation happens by
    construction.
    """
    k, c = shape.k, shape.cols
    alpha = tuple(tuple(row) for row in alpha)
    if len(alpha) != k or any(len(row) != c for row in alpha):
        raise ValueError(f"expected a {k} x {c} profile matrix for {shape!r}")

    def entry(i: int, j: int) -> ExtNat:
        return alpha[i - 1][j - 1] if i <= k and j <= c else 0

    try:
        rows = [
            [entry(i, j) - entry(i + 1, j + 1) for j in range(1, c + 1)]
            for i in range(1, k + 1)
        ]
        return PlanePartition(rows, shape)
    except ValueError as exc:
        raise ValueError(f"not a valid essential contact profile: {exc}") from None


def _essential_neighbours(shape: GrassmannShape):
    """Each cell (i, j), row by row, with its essential neighbour: (i, j+1)
    when the box below-right of (i, j) is wider than tall, (i+1, j) when it
    is taller than wide, and None when it is square."""
    k, c = shape.k, shape.cols
    for i in range(1, k + 1):
        for j in range(1, c + 1):
            below, right = k - i, c - j
            yield (i, j), ((i, j + 1) if below < right else (i + 1, j) if below > right else None)


def weight_exponents(beta: PlanePartition) -> tuple[tuple[ExtNat, ...], ...]:
    """Exponent matrix for the essential weighting realizing beta on the
    standard planar network.

    Position (i, j) takes its entry minus the entry at its essential
    neighbour, or the entry itself where it has none (the square diagonal).
    """
    at = beta.at
    flat = [at(*cell) if near is None else at(*cell) - at(*near)
            for cell, near in _essential_neighbours(beta.shape)]
    c = beta.shape.cols
    return tuple(tuple(flat[r : r + c]) for r in range(0, len(flat), c))


def floors(beta: PlanePartition) -> list[Partition]:
    """Horizontal slices, bottom up: the s-th floor is the partition of
    cells with entry at least s.  Requires finite height."""
    if not beta.is_finite:
        raise ValueError("an infinite plane partition has no finite floor decomposition")
    out = []
    for s in range(1, beta.height + 1):
        parts = [sum(1 for e in row if e >= s) for row in beta.rows]
        out.append(Partition(parts, beta.shape))
    return out


def from_floors(chain, shape: GrassmannShape) -> PlanePartition:
    """Stack floors with multiplicities: chain is a list of
    (partition, multiplicity) pairs, nested outermost first.

    >>> sh = GrassmannShape(2, 4)
    >>> mu = Partition((2, 1), sh)
    >>> from_floors([(mu, 3)], sh).rows
    ((3, 3), (3, 0))
    """
    k, c = shape.k, shape.cols
    entries = [[0] * c for _ in range(k)]
    previous = None
    for mu, mult in chain:
        if mu.shape != shape:
            raise ValueError("floor partition in a different shape")
        if not mu:
            raise ValueError("empty floors are not allowed in a chain")
        if not (type(mult) is int and mult > 0):
            raise ValueError(f"floor multiplicity must be a positive integer, got {mult!r}")
        if previous is not None and not previous.contains(mu):
            raise ValueError(
                f"floors are not nested: {previous.parts} does not contain {mu.parts}"
            )
        for i, j in mu.cells():
            entries[i - 1][j - 1] += mult
        previous = mu
    return PlanePartition(entries, shape)


def home_center(beta: PlanePartition) -> tuple[Partition, Partition]:
    """(home, center): the partitions of infinite cells and of positive cells.

    Generic arcs of the stratum live inside the Schubert variety of the
    home and send the special point into the variety of the center.
    """
    inf_parts = [sum(1 for e in row if isinstance(e, Infinity)) for row in beta.rows]
    pos_parts = [sum(1 for e in row if e >= 1) for row in beta.rows]
    return Partition(inf_parts, beta.shape), Partition(pos_parts, beta.shape)


def plateaux(beta: PlanePartition) -> list[tuple[tuple[int, int], ExtNat, ExtNat]]:
    """All plateau corners ((a, b), height, fall), scanned row-major.

    Position (a, b) is a plateau corner when all entries northwest of it,
    the corner itself excepted, share one value h.  At (1, 1) that region
    is empty and h = inf.  The fall is h minus the corner entry; when h is
    infinite the fall is 0 on an infinite corner and inf otherwise.

    Entries decrease weakly, so the region's largest entry is the one at
    (1, 1) and its smallest is at (a-1, b) or (a, b-1): the region is
    constant exactly when those agree.
    """
    k, c = beta.shape.k, beta.shape.cols
    top = beta.rows[0][0]
    found = []
    for a in range(1, k + 1):
        for b in range(1, c + 1):
            corner = beta.at(a, b)
            if (a, b) == (1, 1):
                h: ExtNat = INF
            elif min(beta.at(i, j) for i, j in ((a - 1, b), (a, b - 1)) if i and j) == top:
                h = top
            else:
                continue
            if isinstance(h, Infinity):
                fall: ExtNat = 0 if isinstance(corner, Infinity) else INF
            else:
                fall = h - corner
            found.append(((a, b), h, fall))
    return found


def all_plane_partitions(shape: GrassmannShape, max_height: int) -> Iterator[PlanePartition]:
    """All plane partitions in the box with entries at most ``max_height``,
    a non-negative int, in lexicographic order of their rows.

    Counting up from zero: the next one raises by one the last entry, in
    row-major order, that stays at most max_height and its neighbours above
    and to the left, and sets every later entry to 0.
    """
    _check_natural(max_height, "max_height")
    k, c = shape.k, shape.cols
    backward = [(i, j) for i in range(k - 1, -1, -1) for j in range(c - 1, -1, -1)]
    entries = [[0] * c for _ in range(k)]
    while True:
        yield PlanePartition(entries, shape)
        for i, j in backward:
            cap = min(entries[i - 1][j] if i else max_height, entries[i][j - 1] if j else max_height)
            if entries[i][j] < cap:
                entries[i][j] += 1
                break
            entries[i][j] = 0
        else:
            return


# -- Text format -------------------------------------------------------------


def parse_ext_matrix(text: str, shape: GrassmannShape) -> tuple[tuple[ExtNat, ...], ...]:
    """Parse "2 2; 2 1" with 'inf' allowed, into a k x (n-k) matrix."""
    rows = [row.strip() for row in text.split(";")]
    matrix = tuple(tuple(parse_ext(tok) for tok in row.split()) for row in rows)
    k, c = shape.k, shape.cols
    if len(matrix) != k or any(len(row) != c for row in matrix):
        raise ValueError(f"expected a {k} x {c} matrix for {shape!r}, got {text!r}")
    return matrix


def parse_plane_partition(text: str, shape: GrassmannShape) -> PlanePartition:
    return PlanePartition(parse_ext_matrix(text, shape), shape)


def format_ext_matrix(matrix) -> str:
    return "; ".join(" ".join(format_ext(e) for e in row) for row in matrix)


def format_plane_partition(beta: PlanePartition) -> str:
    return format_ext_matrix(beta.rows)
