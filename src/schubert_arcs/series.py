"""Truncated power series, series matrices, and contact profiles of arcs.

An arc on the Grassmannian is represented by a k x n matrix of power series
truncated at a fixed precision: coefficients of t^0 through t^m are stored
exactly as integers or Fractions.  Sums and products of exact inputs have
exact coefficients in that range, so any vanishing order at most m is
certain; beyond the window only the lower bound "order >= m+1" survives.
Orders are plain ints: a value at most m is exact, and m+1 is that lower
bound.

The central computation is :func:`invariant_factor_profile`: the plane
partition recording, for every rectangle Schubert condition, the contact
order of the arc.  It only needs orders of minors of column-truncations of
the matrix, never a series inverse.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations
from math import lcm

from .partitions import GrassmannShape, _check_natural, _read_natural
from .plane_partitions import PlanePartition, PrecisionExceeded, from_essential


# exact coefficient and scalar types, matched by type() so that a bool does
# not pass for an int
_EXACT = (int, Fraction)


class NotAnArc(ValueError):
    """The constant term of the matrix has rank below k: no maximal minor is a unit."""


class NotInBigCell(ValueError):
    """The minor on the last k columns is not a unit.

    Apply :func:`borel_translate` first; contact profiles are invariant
    under that change of coordinates.
    """


class TruncatedSeries:
    """A power series known exactly modulo t^(precision+1), where the
    precision is the number of coefficients given less one.

    Coefficients are exact: each is an ``int`` (not a ``bool``) or a
    ``Fraction``, and anything else raises ``ValueError``.  They are kept as
    computed: an integral ``Fraction`` stays a ``Fraction`` (equal, with the
    same hash, to the ``int``), so a series built from integral Fractions,
    or a fractional series multiplied into integral values, holds Fractions
    in ``coeffs``.  :func:`format_series` writes every coefficient in lowest
    terms, and :func:`parse_series` reads integral coefficients as ints.

    Series add, subtract and multiply with series, and multiply with ``int``
    and ``Fraction`` scalars from either side; any other operand raises
    ``TypeError``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a truncated series needs at least the constant coefficient")
        if any(type(c) not in _EXACT for c in coeffs):
            raise ValueError(f"series coefficients must be ints or Fractions: {coeffs!r}")
        self.coeffs = coeffs

    @classmethod
    def _of(cls, coeffs: tuple) -> "TruncatedSeries":
        """The series on a non-empty tuple of exact coefficients, stored
        without a copy or a check: arithmetic on checked series builds its
        results here."""
        series = object.__new__(cls)
        series.coeffs = coeffs
        return series

    @property
    def precision(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, precision: int) -> "TruncatedSeries":
        _check_natural(precision, "precision")
        return cls._of((0,) * (precision + 1))

    @classmethod
    def one(cls, precision: int) -> "TruncatedSeries":
        _check_natural(precision, "precision")
        return cls._of((1,) + (0,) * precision)

    @classmethod
    def t_power(cls, exponent: int, precision: int, coeff=1) -> "TruncatedSeries":
        """coeff * t^exponent; exponents beyond the precision leave zero."""
        _check_natural(exponent, "exponent")
        _check_natural(precision, "precision")
        if type(coeff) not in _EXACT:
            raise ValueError(f"series coefficients must be ints or Fractions: {coeff!r}")
        coeffs = [0] * (precision + 1)
        if exponent <= precision:
            coeffs[exponent] = coeff
        return cls._of(tuple(coeffs))

    def truncate(self, precision: int) -> "TruncatedSeries":
        _check_natural(precision, "precision")
        if precision >= self.precision:
            return self
        return TruncatedSeries._of(self.coeffs[: precision + 1])

    # zip stops at the shorter tuple, so a sum or difference is known up to
    # the smaller precision, as a product is

    def __add__(self, other):
        if type(other) is not TruncatedSeries:
            return NotImplemented
        return TruncatedSeries._of(tuple([a + b for a, b in zip(self.coeffs, other.coeffs)]))

    def __sub__(self, other):
        if type(other) is not TruncatedSeries:
            return NotImplemented
        return TruncatedSeries._of(tuple([a - b for a, b in zip(self.coeffs, other.coeffs)]))

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries._of(tuple([-c for c in self.coeffs]))

    def __mul__(self, other):
        if type(other) is TruncatedSeries:
            a, b = self.coeffs, other.coeffs
            m = min(len(a), len(b))
            acc = [0] * m
            for i in range(m):
                ai = a[i]
                if not ai:
                    continue
                for j in range(m - i):
                    bj = b[j]
                    if bj:
                        acc[i + j] += ai * bj
            return TruncatedSeries._of(tuple(acc))
        if type(other) in _EXACT:
            return TruncatedSeries._of(tuple([c * other for c in self.coeffs]))
        return NotImplemented

    __rmul__ = __mul__

    def order(self) -> int:
        """Index of the first nonzero coefficient, exact when at most the
        precision; ``precision + 1`` when every known coefficient vanishes,
        which only bounds the true order from below."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return self.precision + 1

    def __eq__(self, other) -> bool:
        return isinstance(other, TruncatedSeries) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"TruncatedSeries({format_series(self)!r}, precision={self.precision})"


class SeriesMatrix:
    """A matrix of truncated series, normalized to one common precision.

    Every entry must be a :class:`TruncatedSeries`; anything else raises
    ``ValueError``.
    """

    __slots__ = ("entries", "nrows", "ncols")

    def __init__(self, entries):
        entries = [list(row) for row in entries]
        if not entries or not entries[0]:
            raise ValueError("series matrix must be non-empty")
        if any(len(row) != len(entries[0]) for row in entries):
            raise ValueError("ragged series matrix")
        for row in entries:
            for e in row:
                if type(e) is not TruncatedSeries:
                    raise ValueError(f"series matrix entries must be TruncatedSeries: {e!r}")
        m = min(e.precision for row in entries for e in row)
        self.entries = tuple(tuple(e.truncate(m) for e in row) for row in entries)
        self.nrows = len(entries)
        self.ncols = len(entries[0])

    @classmethod
    def _of(cls, entries: tuple) -> "SeriesMatrix":
        """The matrix on a non-empty tuple of equally long row tuples of
        series of one precision, stored without a copy or a check: matrices
        assembled from checked series are built here."""
        matrix = object.__new__(cls)
        matrix.entries = entries
        matrix.nrows = len(entries)
        matrix.ncols = len(entries[0])
        return matrix

    @property
    def precision(self) -> int:
        return self.entries[0][0].precision

    def constant_term(self) -> list[list]:
        return [[e.coeffs[0] for e in row] for row in self.entries]

    def __eq__(self, other) -> bool:
        return isinstance(other, SeriesMatrix) and self.entries == other.entries

    def __repr__(self) -> str:
        return f"SeriesMatrix({format_arc_matrix(self)!r}, precision={self.precision})"


def big_cell_arc(affine: SeriesMatrix) -> SeriesMatrix:
    """Extend a k x (n-k) affine matrix to the k x n arc (X | D) where D is
    the k x k matrix with units on the antidiagonal."""
    k = affine.nrows
    prec = affine.precision
    zero, one = TruncatedSeries.zero(prec), TruncatedSeries.one(prec)
    rows = []
    for i, row in enumerate(affine.entries):
        pad = [zero] * k
        pad[k - 1 - i] = one
        rows.append(row + tuple(pad))
    return SeriesMatrix._of(tuple(rows))


def series_det(matrix: SeriesMatrix, rows, cols) -> TruncatedSeries:
    """Determinant of the square submatrix on ``rows`` x ``cols``: tuples
    of one length of 0-based indexes inside the matrix, in any order and
    with repeats, which are not checked.

    A minor of size 1 is its entry and one of size 2 is ad - bc.  Larger
    minors use subset dynamic programming, keyed by the bit mask of the
    column positions: the minor on the first r+1 rows and the r+1 positions
    of a mask is expanded along row r into the minors on ``mask ^ bit``, so
    O(2^s s) series products.  Masks run in increasing order, so each
    sub-minor is ready when it is needed, and the cofactor sign is the
    parity of r plus the number of positions of the mask below the bit.
    Terms whose entry in row r is the zero series are left out, and a minor
    with no other term is the zero series: such a term is a series of int
    zeros, as the product skips zero coefficients, and adding or
    subtracting int zeros changes no coefficient's value or type.  Big-cell
    arcs (X | D) have k^2 - k zero entries in D.
    """
    s = len(rows)
    entry = matrix.entries
    if s == 1:
        return entry[rows[0]][cols[0]]
    if s == 2:
        top, bottom = entry[rows[0]], entry[rows[1]]
        left, right = cols
        return top[left] * bottom[right] - top[right] * bottom[left]
    if s == 0:
        return TruncatedSeries.one(matrix.precision)
    # the nonzero entries of each row, by the bit of their column position
    terms = []
    for r in rows:
        row = entry[r]
        terms.append([(1 << j, row[c]) for j, c in enumerate(cols) if any(row[c].coeffs)])
    # minors of the first r+1 rows, r+1 the number of bits of the mask; a
    # zero entry of the first row is left as the int zero series, since a
    # product with either is a series of int zeros
    minors = [TruncatedSeries.zero(matrix.precision)] * (1 << s)
    for bit, e in terms[0]:
        minors[bit] = e
    for mask in range(3, 1 << s):
        r = mask.bit_count() - 1
        if not r:
            continue
        acc = None
        for bit, e in terms[r]:
            if mask & bit:
                term = e * minors[mask ^ bit]
                odd = (r + (mask & (bit - 1)).bit_count()) % 2
                if acc is None:
                    acc = -term if odd else term
                else:
                    acc = acc - term if odd else acc + term
        if acc is not None:
            minors[mask] = acc
    return minors[-1]


def _integral_rows(const) -> list[list[int]]:
    """The rows of a matrix of ints and Fractions, each multiplied by the
    least common multiple of its denominators: ints only, and the same rank."""
    rows = []
    for row in const:
        if all(type(x) is int for x in row):
            rows.append(list(row))
        else:
            d = lcm(*(x.denominator for x in row))
            rows.append([x.numerator * (d // x.denominator) for x in row])
    return rows


def _pivot_columns(const) -> list[int]:
    """The pivot columns of a matrix of constant terms, by fraction-free
    elimination (Bareiss, Math. Comp. 1968) on its denominator-free rows:
    the lexicographically first set of linearly independent columns that
    spans the column space, so its length is the rank over Q.

    Each step replaces the rows below the pivot row by cross-multiplied
    differences divided by the previous pivot; the division is exact, as
    every entry is then a minor of the cleared matrix, so only ints arise.
    """
    rows = _integral_rows(const)
    pivots, previous = [], 1
    for col in range(len(rows[0])):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        p = top[col]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            rows[r] = [(p * x - f * y) // previous for x, y in zip(rows[r], top)]
        previous = p
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    return pivots


def _check_proper(arc: SeriesMatrix) -> None:
    """Raise NotAnArc unless the arc has fewer rows than columns."""
    if not arc.nrows < arc.ncols:
        raise NotAnArc(f"a {arc.nrows} x {arc.ncols} matrix does not present a proper subspace")


def _check_big_cell(arc: SeriesMatrix) -> None:
    _check_proper(arc)
    k, n = arc.nrows, arc.ncols
    const = arc.constant_term()
    # a minor is a unit exactly when its constant term, the determinant of
    # the constant block, is nonzero; a unit last block already gives the
    # constant term rank k, so the full rank is needed only to tell a
    # singular block of an arc from a matrix that is no arc at all
    if len(_pivot_columns([row[n - k :] for row in const])) < k:
        if len(_pivot_columns(const)) < k:
            raise NotAnArc("no maximal minor is a unit")
        raise NotInBigCell(
            "the minor on the last k columns is not a unit; "
            "apply borel_translate first"
        )


def invariant_factor_profile(arc: SeriesMatrix) -> PlanePartition:
    """The plane partition of contact orders of an arc, position by position.

    Entry (a, b) of the rectangle contact profile is the smallest vanishing
    order among the minors of size k+1-a inside the first k-a+b columns of
    the arc matrix; the plane partition is recovered by consecutive diagonal
    differences.  The arc must be in big-cell form: unit minor on the last
    k columns (see :func:`borel_translate`).

    Raises :class:`PrecisionExceeded` when a needed order exceeds the
    truncation window.

    Each row is bounded by the row above: expanding a minor of entry
    (a-1, b) along its last column writes it through minors of entry (a, b),
    so alpha(a, b) <= alpha(a-1, b).  The running minimum of entry (a, b)
    starts from alpha(a-1, b), or from the lower bound precision + 1 in
    row 1, and its minors are built on the arc truncated to that many
    coefficients: an order that reaches the bound reads as the bound and
    changes no entry.  So only row 1 can raise.

    Only minors whose every column is live on their rows are built: the
    rows on which each column of the truncated arc is not the zero series
    are read in one pass as a bit mask, and each set of rows keeps the list
    of columns whose mask meets it.  A minor with a column that is zero on
    its rows is the zero series, whose order is the bound the entry starts
    from, so leaving it out changes no entry and no
    :class:`PrecisionExceeded` position or bound.  Each column of the unit
    block D of a big-cell arc (X | D) is zero on k - 1 rows.
    """
    _check_big_cell(arc)
    k, n = arc.nrows, arc.ncols
    shape = GrassmannShape(k, n)
    alpha, above = [], [arc.precision + 1] * shape.cols
    for a in range(1, k + 1):
        s = k + 1 - a
        row, m = [], None
        best = arc.precision + 1
        for b, top in enumerate(above, start=1):
            # alpha(a, b) <= alpha(a-1, b) = top; in row 1, top is precision + 1
            best = min(best, top)
            if best:
                if m is None or m.precision >= top:
                    # the arc modulo t^top, the bit mask of the rows on which
                    # each of its columns is not the zero series, and each
                    # set of s rows with its bit mask and its live columns
                    m = SeriesMatrix._of(tuple(tuple(e.truncate(top - 1) for e in r) for r in arc.entries))
                    support = [sum(1 << i for i, r in enumerate(m.entries) if any(r[j].coeffs)) for j in range(n)]
                    live = []
                    for rows in combinations(range(k), s):
                        bits = sum(1 << i for i in rows)
                        live.append((rows, bits, [j for j in range(n) if support[j] & bits]))
                # new minors meet the new last column; at b = 1 they fill s columns
                new_col = s + b - 2
                for rows, bits, cols in live:
                    if not support[new_col] & bits:
                        continue
                    for old in combinations(cols[: cols.index(new_col)], s - 1):
                        best = min(best, series_det(m, rows, old + (new_col,)).order())
                        if best == 0:
                            break
                    if best == 0:
                        break
            if best > arc.precision:
                raise PrecisionExceeded((a, b), best)
            row.append(best)
        alpha.append(row)
        above = row
    try:
        return from_essential(alpha, shape)
    except ValueError as exc:
        raise RuntimeError(f"internal: profile assembly failed ({exc})") from exc


def borel_translate(arc: SeriesMatrix, seed: int = 0) -> SeriesMatrix:
    """Right-translate by an integer upper-triangular matrix into the
    opposite big cell.

    With J = (j_1 < ... < j_k) the lexicographically first columns on which
    the constant term is invertible, the translate is arc . u for
    u = I + x * sum_i E(j_i, n-k+i): column n-k+i gains x times column j_i.
    As j_i <= n-k+i, u is upper-triangular with diagonal 1 or 1 + x, so each
    prefix of columns spans what it spanned: no contact order changes, and
    profiles of the translate are profiles of the arc.

    The new last constant block is B + x * C, with B the old one and C the
    constant term on J; det(B + x * C) is det C times a monic polynomial of
    degree k in x, so one of x = seed, ..., seed + k makes it a unit and
    the translation is deterministic and total.  The seed, the first x
    tried, must be a non-negative int; any other seed raises ValueError.
    A matrix with no fewer rows than columns raises NotAnArc.
    """
    _check_natural(seed, "seed")
    _check_proper(arc)
    k, n = arc.nrows, arc.ncols
    # cleared rows span the same row space, so every block below is of ints
    const = _integral_rows(arc.constant_term())
    basis = tuple(zip(range(n - k, n), _pivot_columns(const)))
    if len(basis) < k:
        raise NotAnArc("no maximal minor is a unit")
    x = seed
    while len(_pivot_columns([[row[c] + x * row[j] for c, j in basis] for row in const])) < k:
        x += 1
    return SeriesMatrix._of(
        tuple(row[: n - k] + tuple(row[c] + row[j] * x for c, j in basis) for row in arc.entries)
    )


# -- Text format -------------------------------------------------------------

_TERM = re.compile(
    r"(?P<coef>[0-9]+(?:/[0-9]+)?)?\s*\*?\s*(?P<t>t(?:\^(?P<exp>[0-9]+))?)?\s*"
)


def parse_series(text: str, precision: int) -> TruncatedSeries:
    """Parse "t^2+t^3", "2*t^3", "1/2*t", "0" into a truncated series."""
    text = text.strip()
    if not text:
        raise ValueError("empty series")
    _check_natural(precision, "precision")
    coeffs = [Fraction(0)] * (precision + 1)
    pos = 0
    sign = 1
    if text[pos] in "+-":
        sign = -1 if text[pos] == "-" else 1
        pos += 1
    while True:
        m = _TERM.match(text, pos)
        if not m or (m.group("coef") is None and m.group("t") is None):
            raise ValueError(f"cannot parse series {text!r} at offset {pos}")
        try:
            coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in series {text!r}") from None
        if m.group("t"):
            exp = _read_natural(m.group("exp")) if m.group("exp") else 1
        else:
            exp = 0
        if exp <= precision:
            coeffs[exp] += sign * coef
        pos = m.end()
        if pos == len(text):
            break
        if text[pos] not in "+-":
            raise ValueError(f"cannot parse series {text!r} at offset {pos}")
        sign = -1 if text[pos] == "-" else 1
        pos += 1
    return TruncatedSeries(c.numerator if c.denominator == 1 else c for c in coeffs)


def format_series(series: TruncatedSeries) -> str:
    """Text form of a series, each coefficient in lowest terms.

    >>> format_series(TruncatedSeries([Fraction(1, 2), Fraction(3, 2)]) * 2)
    '1+3*t'
    """
    parts = []
    for e, c in enumerate(series.coeffs):
        if not c:
            continue
        sign = "-" if c < 0 else "+"
        c = abs(c)
        num = str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
        if e == 0:
            body = num
        else:
            tpow = "t" if e == 1 else f"t^{e}"
            body = tpow if c == 1 else f"{num}*{tpow}"
        parts.append((sign, body))
    if not parts:
        return "0"
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += sign + body
    return out


def parse_arc_matrix(text: str, precision: int) -> SeriesMatrix:
    """Parse "t^2+t^3, t^2, 0, 1; t^2, t, 1, 0" at the given precision."""
    rows = []
    for row_text in text.split(";"):
        cells = row_text.split(",")
        rows.append([parse_series(cell, precision) for cell in cells])
    return SeriesMatrix(rows)


def format_arc_matrix(matrix: SeriesMatrix) -> str:
    return "; ".join(
        ", ".join(format_series(e) for e in row) for row in matrix.entries
    )
