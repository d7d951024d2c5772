"""Independent recomputations used to cross-check the library.

Everything here deliberately avoids the code path it checks: determinants
are expanded over permutations in a separate series arithmetic on
coefficient tuples, or by the library's former subset dynamic program,
path sums and minors add up the weights of every listed path and path
family, tropical minor orders come from a column sweep that lists
neither, rims are counted cell by cell, linear programs are solved by
enumerating basic solutions, by the general two-phase simplex method on
the equalized threshold program, or by brute-force search over integer
plane partitions, singular loci are read off torus fixed points, the
Pluecker orders of G(2, 4) come from their closed forms, big-cell
membership is decided by series determinants rather than by constant
terms, Pluecker orders of concrete arcs and the generic form of an arc
(its profile attained on the final minors alone) are read off series
minors rather than tropically, ranks of constant terms by Gauss-Jordan
elimination in Fractions, generic arcs are assembled from path sums through the checking
constructors, plateau corners by scanning whole regions, plane partitions
are listed by the library's former recursive search, and containment
verdicts with the necessary conditions first: the Pluecker orders of
every pair are streamed, and only unrefuted pairs are certified.  The
helpers only the tests need live here too: the inverse of the minor-label
dictionary, the dictionary between multi-indexes and partitions, the final
minors, the unit test of a series, the closed forms of rims and of the
thresholds of rectangles that the linear program is checked against, and
the Pluecker order, the necessary conditions and the plateau criterion
one at a time, each of which the library's compare runs only as a step.
"""

import random
from collections.abc import Iterator
from fractions import Fraction
from itertools import combinations
from math import lcm
from types import SimpleNamespace

from schubert_arcs import (
    INF,
    GrassmannShape,
    Infinity,
    NotAnArc,
    NotInBigCell,
    Partition,
    PlanePartition,
    PrecisionExceeded,
    SeriesMatrix,
    TruncatedSeries,
    all_partitions,
    all_plane_partitions,
    essential_profile,
    floors,
    invariant_factor_profile,
    weight_exponents,
)
from schubert_arcs.lct import _var
from schubert_arcs.networks import _placement, _unit_matrix
from schubert_arcs.nash import (
    ContainmentVerdict,
    _plateau_chain,
    _plucker_drop,
    _refutation,
    _same_shape,
    sufficient_by_weight_exponents,
)
from schubert_arcs.partitions import _check_multi_index, schubert_conditions
from schubert_arcs.series import series_det
from schubert_arcs.simplex import LPSolution


def shapes_up_to(max_n):
    """Every Grassmannian shape with 2 <= n <= max_n."""
    return [GrassmannShape(k, n) for n in range(2, max_n + 1) for k in range(1, n)]


# -- Determinants and contact orders from scratch -----------------------------


def perm_det(matrix, rows, cols):
    """Signed permutation expansion of the [rows|cols] minor (0-based), with
    the reference arithmetic below in place of the series kernel.

    The permutations are expanded depth first, row by row, so that they
    share their prefix products: choosing column p for a row flips the sign
    once for each column above p that an earlier row took, and a prefix
    stops at a factor that is the zero series.
    """
    rows, cols = tuple(rows), tuple(cols)
    if len(rows) != len(cols):
        raise ValueError("determinant needs a square submatrix")
    prec = matrix.precision
    factors = [[matrix.entries[r][c].coeffs for c in cols] for r in rows]
    total = (0,) * (prec + 1)

    def expand(i, used, term, sign):
        nonlocal total
        if i == len(rows):
            total = series_add(total, term) if sign > 0 else series_sub(total, term)
            return
        for p, factor in enumerate(factors[i]):
            if p in used or not any(factor):
                continue
            flips = sum(1 for q in used if q > p)
            expand(i + 1, used | {p}, series_mul(term, factor), -sign if flips % 2 else sign)

    expand(0, frozenset(), (1,) + (0,) * prec, 1)
    return TruncatedSeries(total)


def subset_dp_det(matrix, rows, cols):
    """Determinant of the square submatrix on ``rows`` x ``cols`` (0-based).

    Subset dynamic programming over column choices: O(2^s s) series products.
    This is the library's series determinant as it was before it dropped its
    per-call set-up: bit masks sorted by size, each sum started from a zero
    series.
    """
    rows, cols = tuple(rows), tuple(cols)
    s = len(rows)
    if s != len(cols):
        raise ValueError("determinant needs a square submatrix")
    prec = matrix.precision
    if s == 0:
        return TruncatedSeries.one(prec)
    entry = matrix.entries
    sub = [[entry[r][c] for c in cols] for r in rows]
    dp = {0: TruncatedSeries.one(prec)}
    for mask in sorted(range(1, 1 << s), key=lambda m: m.bit_count()):
        r = mask.bit_count() - 1
        acc = TruncatedSeries.zero(prec)
        idx = 0
        for j in range(s):
            if mask >> j & 1:
                term = sub[r][j] * dp[mask ^ (1 << j)]
                acc = acc + term if (r + idx) % 2 == 0 else acc - term
                idx += 1
        dp[mask] = acc
    return dp[(1 << s) - 1]


# -- Path sums and minors by enumeration ----------------------------------------


def staircase_paths(shape, i, j, wedges=()):
    """Every path from source i to sink j of the staircase network of the
    shape, as vertex tuples: from v(i, n-k+1) left and down to v(k+1, j).
    Each wedge tag (a, b) adds the down-left edge from v(a, b+1) to
    v(a+1, b)."""
    k, c = shape.k, shape.cols
    wedges = set(wedges)
    found = []

    def walk(trail):
        r, col = trail[-1]
        if r == k + 1:
            if col == j:
                found.append(tuple(trail))
            return
        steps = [(r, col - 1)] if col > j else []
        if col <= c:
            steps.append((r + 1, col))
        if col > j and (r, col - 1) in wedges:
            steps.append((r + 1, col - 1))
        for step in steps:
            walk(trail + [step])

    walk([(i, c + 1)])
    return found


def _placed(weights, wedges=None):
    """The vertex and edge weights of a k x c weight matrix on the staircase
    network of G(k, k+c), a down-left edge of the given weight added for
    each wedge tag (a, b), and the least precision among the weights."""
    k, c = len(weights), len(weights[0])
    vertex, edge = _placement(GrassmannShape(k, k + c), weights)
    for (a, b), w in (wedges or {}).items():
        edge[(a, b + 1), (a + 1, b)] = w
    return vertex, edge, min(w.precision for row in weights for w in row)


def _product_along(path, vertex, edge, precision):
    acc = None
    for w in [vertex.get(v) for v in path] + [edge.get(pair) for pair in zip(path, path[1:])]:
        if w is not None:
            acc = w if acc is None else acc * w
    return TruncatedSeries.one(precision) if acc is None else acc


def path_weight(weights, path, wedges=None):
    """Product of the weights on the vertices and edges of a path, the
    wedge weights (by tag) included; ``one`` only for a path with no
    weighted position."""
    return _product_along(path, *_placed(weights, wedges))


def weight_matrix_by_paths(weights, wedges=None):
    """Matrix of path sums: entry (i, j) adds the weights of all paths from
    source i to sink j of the staircase network, with a down-left edge of
    the given weight for each wedge tag (a, b) of ``wedges``."""
    k, c = len(weights), len(weights[0])
    vertex, edge, precision = _placed(weights, wedges)
    rows = []
    for i in range(1, k + 1):
        row = []
        for j in range(1, c + 1):
            acc = TruncatedSeries.zero(precision)
            for path in staircase_paths(GrassmannShape(k, k + c), i, j, wedges or ()):
                acc = acc + _product_along(path, vertex, edge, precision)
            row.append(acc)
        rows.append(row)
    return SeriesMatrix(rows)


def lindstrom_minor(network, weights, sources, sinks):
    """The [sources|sinks]-minor of the weight matrix, computed as the sum
    over vertex-disjoint path families.  All signs are +1: in a planar
    network no cancelling permutation survives."""
    vertex, edge, precision = _placed(weights)
    if not tuple(sources):
        return TruncatedSeries.one(precision)
    acc = TruncatedSeries.zero(precision)
    for family in network.families(sources, sinks):
        prod = TruncatedSeries.one(precision)
        for path in family:
            prod = prod * _product_along(path, vertex, edge, precision)
        acc = acc + prod
    return acc


def generic_arc_by_paths(beta, precision=16, seed=None):
    """generic_arc of a finite plane partition, with every series and
    matrix built through the checking constructors and the affine block
    summed over listed paths."""
    shape = beta.shape
    exps, units = weight_exponents(beta), _unit_matrix(shape, seed)
    w = []
    for i in range(shape.k):
        row = []
        for j in range(shape.cols):
            coeffs = [0] * (precision + 1)
            if exps[i][j] <= precision:
                coeffs[exps[i][j]] = units[i][j]
            row.append(TruncatedSeries(coeffs))
        w.append(row)
    affine = weight_matrix_by_paths(w)
    rows = []
    for i, row in enumerate(affine.entries):
        pad = [TruncatedSeries([0] * (precision + 1)) for _ in range(shape.k)]
        pad[shape.k - 1 - i] = TruncatedSeries([1] + [0] * precision)
        rows.append(list(row) + pad)
    return SeriesMatrix(rows)


# -- Tropical minors by a column sweep -------------------------------------------


def column_sweep_minor_order(beta, sources, sinks):
    """Least summed weight exponent over the vertex-disjoint path families
    joining sources to sinks in the staircase network of beta, without
    listing a path or a family.

    The sweep runs over the columns from right to left.  Its state is the
    tuple of rows at which the surviving paths enter the current column,
    each mapped to the least cost so far.  In a column, path u comes in at
    row r_u, walks down to some row r'_u above the next path's entry, and
    leaves to the left there, except the lowest path when this column is
    its sink: it walks down off the grid.  Exponent (i, j) is paid by a
    path entering (i, j) from the right when the box below-right of (i, j)
    is wider than tall, by one visiting (i, j) when it is square, and by
    one leaving (i, j) downwards when taller than wide.  The empty minor
    has order 0.
    """
    sources, sinks = tuple(sources), tuple(sinks)
    if not sources:
        return 0
    k, c = beta.shape.k, beta.shape.cols
    exps = weight_exponents(beta)

    def paid(i, j, entered, left_down):
        below, right = k - i, c - j
        if below < right:
            return exps[i - 1][j - 1] if entered else 0
        if below > right:
            return exps[i - 1][j - 1] if left_down else 0
        return exps[i - 1][j - 1]

    def segment(col, top, bottom, to_sink):
        """Cost of entering column col at row top and walking down to row
        bottom, then leaving down to the sink or to the left."""
        total = 0
        for i in range(top, bottom + 1):
            total = total + paid(i, col, i == top, i < bottom or to_sink)
        return total

    states = {sources: 0}
    for col in range(c, 0, -1):
        sinking = sinks[-1] == col
        after = {}
        for rows, cost in states.items():
            choices = [()]
            for u, top in enumerate(rows):
                if sinking and u == len(rows) - 1:
                    bottoms = [k]
                else:
                    bottoms = range(top, rows[u + 1] if u + 1 < len(rows) else k + 1)
                choices = [exits + (bottom,) for exits in choices for bottom in bottoms]
            for exits in choices:
                total = cost
                for u, (top, bottom) in enumerate(zip(rows, exits)):
                    total = total + segment(col, top, bottom, sinking and u == len(rows) - 1)
                key = exits[:-1] if sinking else exits
                if col == 1 and key:
                    continue  # a path never reaches its sink
                if key not in after or total < after[key]:
                    after[key] = total
        states = after
        if sinking:
            sinks = sinks[:-1]
            if not sinks:
                break
    if () not in states:
        raise ValueError("no vertex-disjoint path family joins these sources and sinks")
    return states[()]


# -- Series arithmetic on coefficient tuples ------------------------------------
#
# A tuple (c_0, ..., c_m) is a series known modulo t^(m+1); each result is
# known up to the smaller of the two precisions.  These are the plain index
# loops, and the product runs its outer loop over the sparser factor.


def series_add(a, b):
    m = min(len(a) - 1, len(b) - 1)
    return tuple([a[i] + b[i] for i in range(m + 1)])


def series_sub(a, b):
    m = min(len(a) - 1, len(b) - 1)
    return tuple([a[i] - b[i] for i in range(m + 1)])


def series_mul(a, b):
    """Product of two coefficient tuples, or of a tuple and an int or
    Fraction scalar ``b``."""
    if isinstance(b, (int, Fraction)):
        return tuple([c * b for c in a])
    m = min(len(a) - 1, len(b) - 1)
    if sum(1 for c in a[: m + 1] if c) > sum(1 for c in b[: m + 1] if c):
        a, b = b, a
    acc = [0] * (m + 1)
    for i in range(m + 1):
        ai = a[i]
        if not ai:
            continue
        for j in range(m + 1 - i):
            bj = b[j]
            if bj:
                acc[i + j] += ai * bj
    return tuple(acc)


def naive_alpha(arc):
    """Rectangle contact orders of an arc, recomputed exhaustively.

    Entry (a, b) is the smallest vanishing order among the minors of size
    k+1-a inside the first k-a+b columns of the full k x n matrix; an entry
    above the precision is the lower bound precision + 1.
    """
    k = arc.nrows
    c = arc.ncols - k
    grid = []
    for a in range(1, k + 1):
        size = k + 1 - a
        row = []
        for b in range(1, c + 1):
            ncols = k - a + b
            row.append(
                min(
                    perm_det(arc, rr, cc).order()
                    for rr in combinations(range(k), size)
                    for cc in combinations(range(ncols), size)
                )
            )
        grid.append(tuple(row))
    return tuple(grid)


# -- Rims by scanning the box ---------------------------------------------------


def rim_size(lam: Partition) -> int:
    """Number of box cells outside lam that touch its diagram, corners included.

    Touching means sharing an edge or just a vertex with some diagram cell.
    Only defined when the diagram stays clear of the box boundary: at most
    k-1 parts, each at most n-k-1.  The empty partition is rejected, since
    nothing touches it.  Otherwise lam and its rim fill the partition
    (lam_1+1, lam_1+1, lam_2+1, ..., lam_l+1): the rim has lam_1 + l + 1 cells.
    """
    if not lam:
        raise ValueError("rim of the empty partition is undefined")
    k, c = lam.shape.k, lam.shape.cols
    if len(lam.parts) > k - 1 or lam.parts[0] > c - 1:
        raise ValueError(f"{lam!r} touches the box boundary; rim undefined")
    return lam.parts[0] + len(lam.parts) + 1


def rim_size_by_scan(lam):
    """Number of box cells outside lam that share an edge or a vertex with a
    diagram cell, counted by testing the 8 neighbours of every box cell.
    Meant for a lam clear of the box boundary, as rim_size requires."""
    inside = set(lam.cells())
    k, c = lam.shape.k, lam.shape.cols
    return sum(
        1
        for i in range(1, k + 1)
        for j in range(1, c + 1)
        if (i, j) not in inside
        and any(
            (i + di, j + dj) in inside
            for di in (-1, 0, 1)
            for dj in (-1, 0, 1)
            if (di, dj) != (0, 0)
        )
    )


# -- Minor labels and column slices ---------------------------------------------


def partition_from_multi_index(entries, shape: GrassmannShape) -> Partition:
    """Partition indexing the Schubert variety whose open cell contains the
    torus-fixed point of the multi-index.

    The s-th multi-index entry is s plus the (k+1-s)-th part, so the two
    descriptions carry the same data.

    >>> partition_from_multi_index((2, 3, 6), GrassmannShape(3, 6)).parts
    (3, 1, 1)
    """
    entries = _check_multi_index(entries, shape)
    parts = [entries[s - 1] - s for s in range(shape.k, 0, -1)]
    return Partition(parts, shape)


def multi_index_from_partition(lam: Partition) -> tuple[int, ...]:
    """Inverse of :func:`partition_from_multi_index`."""
    k = lam.shape.k
    return tuple(s + lam.part(k + 1 - s) for s in range(1, k + 1))


def minor_leq(label1, label2) -> bool:
    """Partial order on minor labels under which ideals of Schubert varieties
    are generated by the minors not above a given one.

    (rows1, cols1) <= (rows2, cols2) when the first minor is at least as
    large and its leading rows and columns are entrywise at most those of
    the second.  Smaller in the order means deeper in the variety.
    """
    rows1, cols1 = label1
    rows2, cols2 = label2
    if len(rows1) < len(rows2):
        return False
    return all(rows1[u] <= rows2[u] for u in range(len(rows2))) and all(
        cols1[u] <= cols2[u] for u in range(len(cols2))
    )


def rectangle_ideal_minors(
    shape: GrassmannShape, a: int, b: int
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Minor labels generating the ideal of the rectangle Schubert variety
    with corner (a, b) on the opposite big cell.

    With r = min(k-a, n-k-b), these are the minors of size r+1 inside the
    first b+r columns when the box below the rectangle is at least as wide
    as tall, and inside the first a+r rows otherwise.
    """
    k, c = shape.k, shape.cols
    if not (1 <= a <= k and 1 <= b <= c):
        raise ValueError(f"position ({a}, {b}) outside the {k} x {c} box")
    r = min(k - a, c - b)
    s = r + 1
    if k - a <= c - b:
        row_pool, col_pool = range(1, k + 1), range(1, b + r + 1)
    else:
        row_pool, col_pool = range(1, a + r + 1), range(1, c + 1)
    return [
        (rows, cols)
        for rows in combinations(row_pool, s)
        for cols in combinations(col_pool, s)
    ]


def multi_index_of_minor(rows, cols, shape: GrassmannShape) -> tuple[int, ...]:
    """Inverse of ``partitions.minor_of_multi_index``."""
    k, n = shape.k, shape.n
    rows, cols = tuple(rows), tuple(cols)
    if len(rows) != len(cols):
        raise ValueError("minor label needs equally many rows and columns")
    if any(type(x) is not int for x in rows + cols):
        raise ValueError(f"minor label entries must be integers: {rows}, {cols}")
    if any(not 1 <= i <= k for i in rows) or any(not 1 <= j <= n - k for j in cols):
        raise ValueError(f"minor label out of range for {shape!r}: {rows}, {cols}")
    complement = (n + 1 - i for i in range(1, k + 1) if i not in set(rows))
    return _check_multi_index(tuple(sorted(cols)) + tuple(sorted(complement)), shape)


def final_minor(shape: GrassmannShape, a: int, b: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The largest minor with upper-left entry (a, b): rows a..a+r, columns
    b..b+r where r = min(k-a, n-k-b).

    These are the maximal elements above (a, b) in the minor order; their
    vanishing orders along an arc determine those of all other minors.
    """
    k, c = shape.k, shape.cols
    if not (1 <= a <= k and 1 <= b <= c):
        raise ValueError(f"position ({a}, {b}) outside the {k} x {c} box")
    r = min(k - a, c - b)
    return tuple(range(a, a + r + 1)), tuple(range(b, b + r + 1))


def column_slice(matrix, ncols):
    return SeriesMatrix([row[:ncols] for row in matrix.entries])


# -- Big-cell membership by series determinants ---------------------------------


def rank_by_gauss_jordan(const) -> int:
    """Rank over Q of a matrix of constant terms, by Gauss-Jordan elimination.

    The library's rank of a constant term as it was before it cleared
    denominators and eliminated fraction-free.
    """
    rows = [[Fraction(c) for c in row] for row in const]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def is_unit(series):
    """Whether a series is invertible: its constant term is nonzero."""
    return bool(series.coeffs[0])


def _has_unit_maximal_minor(arc):
    k, n = arc.nrows, arc.ncols
    return any(is_unit(subset_dp_det(arc, range(k), cols)) for cols in combinations(range(n), k))


def check_big_cell_by_series_det(arc):
    """The arc and big-cell checks of invariant_factor_profile, each read off
    series determinants: some maximal minor, and the minor on the last k
    columns, must be units."""
    k, n = arc.nrows, arc.ncols
    if not k < n:
        raise NotAnArc(f"a {k} x {n} matrix does not present a proper subspace")
    if not _has_unit_maximal_minor(arc):
        raise NotAnArc("no maximal minor is a unit")
    if not is_unit(subset_dp_det(arc, range(k), range(n - k, n))):
        raise NotInBigCell(
            "the minor on the last k columns is not a unit; "
            "apply borel_translate first"
        )


def borel_translate_by_series_det(arc, seed=0):
    """The Borel translation as the library first ran it: up to 32 random
    integer upper-triangular translates, each built in full and accepted
    when its series minor on the last k columns is a unit."""
    k, n = arc.nrows, arc.ncols
    if not _has_unit_maximal_minor(arc):
        raise NotAnArc("no maximal minor is a unit")
    rng = random.Random(seed)
    prec = arc.precision
    for _ in range(32):
        u = [
            [
                rng.randint(1, 9) if i == j else (rng.randint(-9, 9) if j > i else 0)
                for j in range(n)
            ]
            for i in range(n)
        ]
        rows = []
        for row in arc.entries:
            new_row = []
            for j in range(n):
                acc = TruncatedSeries.zero(prec)
                for i in range(n):
                    if u[i][j]:
                        acc = acc + row[i] * u[i][j]
                new_row.append(acc)
            rows.append(new_row)
        candidate = SeriesMatrix(rows)
        if is_unit(subset_dp_det(candidate, range(k), range(n - k, n))):
            return candidate
    raise RuntimeError("internal: failed to reach the big cell by translation")


# -- Arc checkers: Pluecker orders and generic form by series minors ----------


def final_multi_index(shape: GrassmannShape, a: int, b: int) -> tuple[int, ...]:
    """Pluecker multi-index of the final minor at (a, b)."""
    rows, cols = final_minor(shape, a, b)
    return multi_index_of_minor(rows, cols, shape)


def plucker_order_of_arc(arc: SeriesMatrix, entries) -> int:
    """Vanishing order of the Pluecker coordinate of a 1-based multi-index,
    as :meth:`TruncatedSeries.order` gives it: ``arc.precision + 1`` is only
    a lower bound."""
    k, n = arc.nrows, arc.ncols
    cols = tuple(e - 1 for e in _check_multi_index(entries, GrassmannShape(k, n)))
    return series_det(arc, range(k), cols).order()


def is_generic_form(arc: SeriesMatrix, beta: PlanePartition) -> bool:
    """Whether the arc realizes beta the way a network arc does: big-cell
    form, profile equal to beta, and each rectangle contact order already
    attained on the final minor alone."""
    try:
        profile = invariant_factor_profile(arc)
    except NotInBigCell:
        return False
    if profile != beta:
        return False
    shape = beta.shape
    alpha = essential_profile(beta)
    for a in range(1, shape.k + 1):
        for b in range(1, shape.cols + 1):
            target = alpha[a - 1][b - 1]
            got = plucker_order_of_arc(arc, final_multi_index(shape, a, b))
            if got <= arc.precision:
                if got != target:
                    return False
            elif target >= got:
                raise PrecisionExceeded((a, b), got)
            else:
                return False
    return True


# -- Singular loci from torus fixed points -------------------------------------


def fixed_point_multi_index(mu):
    """Coordinates spanning the fixed point attached to mu."""
    k = mu.shape.k
    parts = list(mu.parts) + [0] * (k - len(mu.parts))
    return tuple(s + parts[k - s] for s in range(1, k + 1))


def fixed_point_census(lam):
    """Classify all torus fixed points against the corner conditions of lam.

    A fixed point is a member when every corner condition holds, and a
    singular member when some corner condition holds strictly.  Returns
    (members, singular) as sets of partitions.
    """
    shape = lam.shape
    k = shape.k
    parts = list(lam.parts) + [0] * (k - len(lam.parts))
    corners = [
        (a, parts[a - 1])
        for a in range(1, k + 1)
        if parts[a - 1] > 0 and (a == k or parts[a] < parts[a - 1])
    ]
    members, singular = set(), set()
    for mu in [Partition((), shape), *all_partitions(shape)]:
        entries = fixed_point_multi_index(mu)
        counts = [(a, sum(1 for e in entries if e > k - a + b)) for a, b in corners]
        if all(count >= a for a, count in counts):
            members.add(mu)
            if any(count > a for a, count in counts):
                singular.add(mu)
    return members, singular


# -- Linear programs by the two-phase simplex method ----------------------------
#
# A general solver: "<=", ">=" and "=" rows, Fraction data and negative
# right-hand sides, with an artificial column per row.  Solving the
# equation form of the threshold program, it is the differential oracle of
# the one-phase solver, which shares no code with it.


class TwoPhaseLP:
    """maximize objective . x  subject to the constraints and x >= 0.

    Each constraint is (coefficients, relation, rhs) with relation one of
    "<=", ">=", "=".  Coefficients and rhs may be ints or Fractions.
    """

    def __init__(self, n_vars: int, objective: list, constraints: list | None = None):
        self.n_vars = n_vars
        self.objective = objective
        self.constraints = [] if constraints is None else constraints

    def add(self, coefficients, relation: str, rhs) -> None:
        if relation not in ("<=", ">=", "="):
            raise ValueError(f"unknown relation {relation!r}")
        if len(coefficients) != self.n_vars:
            raise ValueError("constraint length does not match variable count")
        self.constraints.append((list(coefficients), relation, rhs))


def _scale_to_integers(coefficients, rhs):
    fracs = [Fraction(c) for c in coefficients] + [Fraction(rhs)]
    m = lcm(*(f.denominator for f in fracs)) if fracs else 1
    ints = [int(f * m) for f in fracs]
    return ints[:-1], ints[-1]


class _Tableau:
    def __init__(self, rows, basis, n_cols):
        self.rows = rows  # each: list of n_cols coefficients + rhs appended
        self.basis = basis  # basis[i] = column index basic in row i
        self.n_cols = n_cols
        self.obj = [0] * (n_cols + 1)
        self.d = 1

    def pivot(self, p: int, q: int) -> None:
        d, piv = self.d, self.rows[p][q]
        prow = self.rows[p]
        for r, row in enumerate(self.rows):
            if r != p:
                arq = row[q]
                row[:] = [(piv * a - arq * b) // d for a, b in zip(row, prow)]
        oq = self.obj[q]
        self.obj[:] = [(piv * a - oq * b) // d for a, b in zip(self.obj, prow)]
        self.basis[p] = q
        self.d = piv

    def run(self, allowed) -> str:
        """Pivot until optimal or unbounded.  Bland: the entering column is
        the lowest allowed index with negative objective entry; the leaving
        row minimizes the ratio, ties to the lowest basic variable."""
        while True:
            q = next(
                (j for j in allowed if self.obj[j] < 0),
                None,
            )
            if q is None:
                return "optimal"
            p = None
            for i, row in enumerate(self.rows):
                if row[q] <= 0:
                    continue
                if p is None:
                    p = i
                    continue
                lhs = self.rows[p][-1] * row[q]
                rhs = row[-1] * self.rows[p][q]
                if rhs < lhs or (rhs == lhs and self.basis[i] < self.basis[p]):
                    p = i
            if p is None:
                return "unbounded"
            self.pivot(p, q)


def two_phase_max(lp):
    """Solve the LP exactly.  Returns status "optimal" with the value and
    one optimal vertex, or "infeasible", or "unbounded"."""
    if len(lp.objective) != lp.n_vars:
        raise ValueError("objective length does not match variable count")
    n = lp.n_vars
    slack_count = sum(1 for _, rel, _ in lp.constraints if rel != "=")
    n_cols = n + slack_count + len(lp.constraints)
    art_start = n + slack_count

    rows, basis = [], []
    slack_at = n
    for idx, (coeffs, rel, rhs) in enumerate(lp.constraints):
        ints, b = _scale_to_integers(coeffs, rhs)
        if rel == ">=":
            ints, b, rel = [-c for c in ints], -b, "<="
        if b < 0:
            ints, b = [-c for c in ints], -b
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        row = ints + [0] * (n_cols - n) + [b]
        if rel == "<=":
            row[slack_at] = 1
            basis.append(slack_at)
            slack_at += 1
        elif rel == ">=":
            row[slack_at] = -1
            slack_at += 1
            row[art_start + idx] = 1
            basis.append(art_start + idx)
        else:
            row[art_start + idx] = 1
            basis.append(art_start + idx)
        rows.append(row)

    t = _Tableau(rows, basis, n_cols)
    artificial = set(range(art_start, n_cols))
    structural = [j for j in range(n_cols) if j not in artificial]

    if any(b in artificial for b in t.basis):
        # phase 1: maximize minus the sum of artificials, starting objective
        # row already reduced over the artificial basis
        t.obj = [0] * (n_cols + 1)
        for j in artificial:
            t.obj[j] = 1
        for i, b in enumerate(t.basis):
            if b in artificial:
                t.obj = [a - r for a, r in zip(t.obj, t.rows[i])]
        status = t.run(structural)
        assert status == "optimal", "phase 1 is bounded by construction"
        if t.obj[-1] != 0:
            return LPSolution("infeasible")
        _expel_artificials(t, artificial)

    # phase 2: the real objective, reduced over the current basis
    c_scale = lcm(*(Fraction(c).denominator for c in lp.objective)) if n else 1
    c_int = [int(Fraction(c) * c_scale) for c in lp.objective]
    obj = [0] * (n_cols + 1)
    for j in range(n):
        obj[j] = -t.d * c_int[j]
    for i, b in enumerate(t.basis):
        if b < n and c_int[b]:
            obj = [a + c_int[b] * r for a, r in zip(obj, t.rows[i])]
    t.obj = obj
    status = t.run(structural)
    if status == "unbounded":
        return LPSolution("unbounded")

    x = [Fraction(0)] * n
    for i, b in enumerate(t.basis):
        if b < n:
            x[b] = Fraction(t.rows[i][-1], t.d)
    value = Fraction(t.obj[-1], t.d * c_scale)
    return LPSolution("optimal", value, tuple(x))


def _expel_artificials(t: _Tableau, artificial) -> None:
    """Pivot zero-level artificials out of the basis; drop rows that turn
    out to be redundant equations."""
    keep = []
    for i in range(len(t.rows)):
        if t.basis[i] not in artificial:
            keep.append(i)
            continue
        q = next(
            (j for j in range(t.n_cols) if j not in artificial and t.rows[i][j] != 0),
            None,
        )
        if q is None:
            continue  # all-zero row: redundant constraint
        if t.rows[i][q] < 0:
            t.rows[i] = [-a for a in t.rows[i]]
        t.pivot(i, q)
        keep.append(i)
    if len(keep) < len(t.rows):
        t.rows = [t.rows[i] for i in keep]
        t.basis = [t.basis[i] for i in keep]


def equation_form_lp(lam):
    """Linear program whose optimum is the Arnold multiplicity of lam.

    Variables are the entries of a plane R-partition beta, row-major.
    Constraints: entries weakly decrease along rows and columns (with
    non-negativity native to the solver), total volume one, and the
    diagonal sums at consecutive corners of lam agree.  The objective is
    the diagonal sum at the first corner, which equals ord(lambda) on the
    equalized locus.
    """
    if not lam:
        raise ValueError("the pair with the whole Grassmannian has no threshold")
    shape = lam.shape
    k, c = shape.k, shape.cols
    lp = TwoPhaseLP(k * c, [0] * (k * c))
    corners = schubert_conditions(lam)
    a, b = corners[0]
    for i, j in zip(range(a, k + 1), range(b, c + 1)):
        lp.objective[_var(shape, i, j)] = 1
    for i in range(1, k + 1):
        for j in range(1, c + 1):
            if j < c:
                row = [0] * (k * c)
                row[_var(shape, i, j)] = -1
                row[_var(shape, i, j + 1)] = 1
                lp.add(row, "<=", 0)
            if i < k:
                row = [0] * (k * c)
                row[_var(shape, i, j)] = -1
                row[_var(shape, i + 1, j)] = 1
                lp.add(row, "<=", 0)
    lp.add([1] * (k * c), "=", 1)
    for (a, b), (a2, b2) in zip(corners, corners[1:]):
        row = [0] * (k * c)
        for i, j in zip(range(a, k + 1), range(b, c + 1)):
            row[_var(shape, i, j)] += 1
        for i, j in zip(range(a2, k + 1), range(b2, c + 1)):
            row[_var(shape, i, j)] -= 1
        lp.add(row, "=", 0)
    return lp


# -- Thresholds of rectangles in closed form ------------------------------------


def lct_rectangular(a: int, b: int, shape: GrassmannShape) -> Fraction:
    """Closed form for the threshold of a rectangular diagram (b^a):
    the minimum of (a+s)(b+s)/(s+1) as the rectangle grows diagonally."""
    k, c = shape.k, shape.cols
    if type(a) is not int or type(b) is not int:
        raise ValueError(f"rectangle sides must be integers: {a!r} x {b!r}")
    if not (1 <= a <= k and 1 <= b <= c):
        raise ValueError(f"rectangle {a} x {b} does not fit in the {k} x {c} box")
    r = min(k - a, c - b)
    return min(Fraction((a + s) * (b + s), s + 1) for s in range(r + 1))


# -- Linear programs by basic-solution enumeration -----------------------------


def solve_square(rows, rhs):
    """Solve a square rational linear system; None when singular."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(r)] for row, r in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = aug[col][col]
        aug[col] = [x / scale for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def satisfies(rows, point):
    """Whether a point is non-negative and meets every (coefficients, rhs)
    row as coefficients . point <= rhs."""
    if any(x < 0 for x in point):
        return False
    return all(
        sum(Fraction(c) * x for c, x in zip(coeffs, point)) <= rhs for coeffs, rhs in rows
    )


def as_leq(lp):
    """A relation-form program with every row written as coefficients . x
    <= rhs: a ">=" row negated, an "=" row as two opposite rows."""
    rows = []
    for coeffs, relation, rhs in lp.constraints:
        if relation != ">=":
            rows.append((coeffs, rhs))
        if relation != "<=":
            rows.append(([-c for c in coeffs], -rhs))
    return SimpleNamespace(n_vars=lp.n_vars, objective=lp.objective, constraints=rows)


def brute_lp_max(lp):
    """Best objective value over all feasible basic solutions of a program
    whose rows are (coefficients, rhs) pairs read as coefficients . x <= rhs.

    Sound for bounded feasible regions, where the maximum sits at a vertex
    and every vertex solves some square subsystem of tight constraints.
    Returns None when nothing is feasible.
    """
    n = lp.n_vars
    planes = list(lp.constraints)
    planes += [([int(i == j) for j in range(n)], 0) for i in range(n)]
    best = None
    for chosen in combinations(planes, n):
        point = solve_square([p[0] for p in chosen], [p[1] for p in chosen])
        if point is None or not satisfies(lp.constraints, point):
            continue
        value = sum(Fraction(c) * x for c, x in zip(lp.objective, point))
        if best is None or value > best:
            best = value
    return best


def brute_force_arnold(lams, height_bound):
    """For each of the partitions lams, all of one shape, the maximum of
    ord(lambda)(beta)/|beta| over integer plane partitions of bounded
    height; an enumeration cross-check for the linear program.

    The plane partitions are listed once and checked against every lambda:
    each lambda's corners are worked out once and each beta's essential
    profile once, and ord(lambda)(beta) is the least profile entry at a
    corner.  The maximum over all of SV(k,n) is attained at a rational
    vertex, so the bounded search equals the true Arnold multiplicity once
    the bound covers a scaled vertex.
    """
    lams = list(lams)
    if not all(lams):
        raise ValueError("the pair with the whole Grassmannian has no threshold")
    corners = [[(a - 1, b - 1) for a, b in schubert_conditions(lam)] for lam in lams]
    best = [(0, 1)] * len(lams)
    for beta in all_plane_partitions(lams[0].shape, height_bound):
        volume = beta.volume
        if not volume:
            continue
        alpha = essential_profile(beta)
        for u, cells in enumerate(corners):
            order = min(alpha[a][b] for a, b in cells)
            num, den = best[u]
            if order * den > num * volume:
                best[u] = order, volume
    return [Fraction(num, den) for num, den in best]


def sv_extremal_points(shape):
    """Extremal points of the polytope of normalized Schubert valuations:
    one-floor plane partitions mu scaled to volume one."""
    out = []
    for mu in all_partitions(shape):
        unit = Fraction(1, mu.size)
        out.append(
            tuple(
                tuple(unit if mu.has_cell(i, j) else Fraction(0) for j in range(1, shape.cols + 1))
                for i in range(1, shape.k + 1)
            )
        )
    return out


def distinct_floor_count(beta):
    """Number of distinct floors of a finite plane partition."""
    return len(set(floors(beta)))


# -- Plateaux by scanning whole regions ------------------------------------------


def plateaux_by_regions(beta):
    """plateaux, with each northwest region collected in full and tested
    for a single value."""
    k, c = beta.shape.k, beta.shape.cols
    found = []
    for a in range(1, k + 1):
        for b in range(1, c + 1):
            region = {
                beta.at(i, j)
                for i in range(1, a + 1)
                for j in range(1, b + 1)
                if (i, j) != (a, b)
            }
            if len(region) > 1:
                continue
            h = region.pop() if region else INF
            corner = beta.at(a, b)
            if isinstance(h, Infinity):
                fall = 0 if isinstance(corner, Infinity) else INF
            else:
                fall = h - corner
            found.append(((a, b), h, fall))
    return found


# -- Closed forms on G(2, 4) ----------------------------------------------------


def g24_orders(beta):
    """Pluecker orders of a G(2, 4) plane partition from their closed forms."""
    b11, b12 = beta.at(1, 1), beta.at(1, 2)
    b21, b22 = beta.at(2, 1), beta.at(2, 2)
    return {
        (1, 2): b11 + b22,
        (1, 3): min(b11, b12 + b21 - b22),
        (1, 4): b21,
        (2, 3): b12,
        (2, 4): b22,
        (3, 4): 0,
    }


# -- Containment verdicts, refutation first -------------------------------------


def plucker_leq(beta: PlanePartition, beta2: PlanePartition) -> bool:
    """Pluecker order: every coordinate vanishes to order at most that of
    the second argument's stratum."""
    _same_shape(beta, beta2)
    return _plucker_drop(beta, beta2) is None


def necessary_containment(beta: PlanePartition, beta2: PlanePartition) -> bool:
    """Whether the containment of stratum closures is not yet excluded.

    False means impossible: some Pluecker order drops, or the volume does
    not strictly increase (see _refutation).
    """
    _same_shape(beta, beta2)
    return beta == beta2 or _refutation(beta, beta2) is None


def sufficient_by_plateau(beta: PlanePartition, beta2: PlanePartition) -> bool:
    """Whether the second plane partition is reached from the first by
    adding boxes at plateau corners with positive fall, one at a time.

    Each single step yields a strict containment of stratum closures, and
    the chain composes them.  The search is greedy (lowest floor, then
    lexicographic), so False only means this particular criterion did not
    apply.  Equal arguments give False: no box is added.
    """
    _same_shape(beta, beta2)
    if beta == beta2:
        return False
    return _plateau_chain(beta, beta2) is not None


def compare_refutation_first(beta, beta2):
    """Best available verdict on whether the closure of the first stratum
    contains the second.

    One pass for every shape: the necessary conditions (Pluecker order,
    then strict volume increase) can refute; on G(2, 4) their passing
    decides containment; elsewhere the sufficient criteria (weight
    exponents, then plateau chains) can confirm, and the remaining gap is
    reported as "unknown".
    """
    shape = _same_shape(beta, beta2)
    if beta == beta2:
        return ContainmentVerdict("contains", "equal plane partitions")
    refutation = _refutation(beta, beta2)
    if refutation is not None:
        return ContainmentVerdict("not-contains", refutation)
    if (shape.k, shape.n) == (2, 4):
        return ContainmentVerdict(
            "contains", "all six Pluecker orders compare, which decides G(2, 4)"
        )
    if sufficient_by_weight_exponents(beta, beta2):
        return ContainmentVerdict("contains", "weight exponents compare entrywise")
    chain = _plateau_chain(beta, beta2)
    if chain is not None:
        return ContainmentVerdict(
            "contains", f"chain of {len(chain)} plateau box additions"
        )
    return ContainmentVerdict(
        "unknown", "necessary conditions hold but no sufficient criterion applies"
    )


# -- Plane partitions by recursion ----------------------------------------------


def plane_partitions_by_recursion(shape: GrassmannShape, max_height: int) -> Iterator[PlanePartition]:
    """All plane partitions in the box with entries at most ``max_height``.

    The library's former search: each row is built entry by entry under the
    row above, and the rows one by one, through three nested generators.
    """

    def rows_from(prev: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        c = len(prev)

        def rec(prefix: list[int], j: int) -> Iterator[tuple[int, ...]]:
            if j == c:
                yield tuple(prefix)
                return
            cap = min(prev[j], prefix[j - 1] if j else prev[0])
            for e in range(cap + 1):
                prefix.append(e)
                yield from rec(prefix, j + 1)
                prefix.pop()

        yield from rec([], 0)

    def build(rows: list[tuple[int, ...]], prev: tuple[int, ...]) -> Iterator[PlanePartition]:
        if len(rows) == shape.k:
            yield PlanePartition(rows, shape)
            return
        for row in rows_from(prev):
            rows.append(row)
            yield from build(rows, row)
            rows.pop()

    yield from build([], (max_height,) * shape.cols)


# -- Random inputs --------------------------------------------------------------


def random_plane_partition(shape, max_height, rng):
    """Random plane partition, each entry drawn up to its north/west cap."""
    rows = []
    for i in range(shape.k):
        row = []
        for j in range(shape.cols):
            cap = max_height
            if i:
                cap = min(cap, rows[i - 1][j])
            if j:
                cap = min(cap, row[j - 1])
            row.append(rng.randint(0, cap))
        rows.append(row)
    return PlanePartition(rows, shape)


def addable_cells(beta):
    """Positions where one more box keeps both monotonicity directions."""
    out = []
    for i in range(1, beta.shape.k + 1):
        for j in range(1, beta.shape.cols + 1):
            entry = beta.at(i, j)
            if isinstance(entry, Infinity):
                continue
            up_ok = i == 1 or beta.at(i - 1, j) > entry
            left_ok = j == 1 or beta.at(i, j - 1) > entry
            if up_ok and left_ok:
                out.append((i, j))
    return out


def grown_plane_partition(beta, steps, rng):
    """beta plus a few random boxes; used to bias containment tests."""
    for _ in range(steps):
        cells = addable_cells(beta)
        if not cells:
            break
        beta = beta.add_box(*rng.choice(cells))
    return beta
