"""Planar networks whose path sums parametrize generic arcs of a stratum.

The standard network for G(k, n) is a grid: internal vertices v(i, j) for
1 <= i <= k, 1 <= j <= n-k, source i the vertex v(i, n-k+1) at the right
end of row i, sink j the vertex v(k+1, j) at the bottom of column j.
Horizontal edges run right to left, vertical edges top to bottom, so paths
are monotone staircases.  Every minor of the matrix of path sums expands as
a sum over vertex-disjoint path families with all coefficients +1;
consequently vanishing orders of minors can be computed tropically,
replacing products along a path by sums of exponents and the outer sum by a
minimum.

A weighting is its k x (n-k) matrix of series: :func:`weight_matrix` puts
entry (i, j) on the essential position of (i, j) and reads the shape from
the matrix.  Grid positions, source labels and sink labels are 1-based
throughout; ``paths`` and ``families`` accept only int labels in range.

Tropical orders need no series, so only the functions that build series
weights or arcs import the series layer, when called; ``nash`` never loads it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, combinations_with_replacement

from .partitions import GrassmannShape, _check_natural, minor_of_multi_index
from .plane_partitions import (
    ExtNat, PlanePartition, PrecisionExceeded, _essential_neighbours, essential_profile,
    weight_exponents,
)


class PlanarNetwork:
    """The staircase network of a shape."""

    def __init__(self, shape: GrassmannShape):
        self.shape = shape
        self._path_cache: dict[tuple[int, int], tuple] = {}
        self._family_cache: dict[tuple, tuple] = {}

    def paths(self, i: int, j: int) -> tuple[tuple[tuple[int, int], ...], ...]:
        """All paths from source i, the vertex (i, n-k+1), to sink j, the
        vertex (k+1, j), as vertex tuples: one for each c >= d_i >= ... >=
        d_(k-1) >= j, the columns where it leaves rows i, ..., k-1 (it
        leaves row k at j), in lexicographic order of the d.  Labels are
        ints in range, checked before the cache is read."""
        k, c = self.shape.k, self.shape.cols
        if type(i) is not int or type(j) is not int or not (1 <= i <= k and 1 <= j <= c):
            raise ValueError(f"no paths from source {i!r} to sink {j!r}")
        if (i, j) in self._path_cache:
            return self._path_cache[(i, j)]
        # vertex (r, x) is grid[r][x], one tuple shared by every path
        grid = {r: [(r, x) for x in range(c + 2)] for r in range(i, k + 2)}
        out = []
        for leave in combinations_with_replacement(range(c, j - 1, -1), k - i):
            path, col = [grid[i][c + 1]], c + 1
            for r, down in enumerate((*leave, j), start=i):
                path += grid[r][col - 1 : down - 1 : -1]
                path.append(grid[r + 1][down])
                col = down
            out.append(tuple(path))
        result = tuple(reversed(out))
        self._path_cache[(i, j)] = result
        return result

    def families(self, sources, sinks):
        """Vertex-disjoint path families joining sources to sinks in order.

        Sources and sinks must be ints, strictly increasing; the u-th source
        is joined to the u-th sink, the only pairing a disjoint family in a
        planar network can use.  The labels are checked before the cache is
        read, where 2.0 would find the families of 2.
        """
        sources, sinks = tuple(sources), tuple(sinks)
        if len(sources) != len(sinks):
            raise ValueError("need equally many sources and sinks")
        last = (0, 0)
        for i, j in zip(sources, sinks):
            if type(i) is not int or type(j) is not int or i <= last[0] or j <= last[1]:
                raise ValueError(f"labels {sources}, {sinks} are not ints increasing from 1")
            last = (i, j)
        if (sources, sinks) in self._family_cache:
            return self._family_cache[(sources, sinks)]
        found = []
        options = [self.paths(i, j) for i, j in zip(sources, sinks)]

        def extend(u: int, used: set, chosen: list) -> None:
            if u == len(sources):
                found.append(tuple(chosen))
                return
            for path in options[u]:
                if used.isdisjoint(path):
                    chosen.append(path)
                    extend(u + 1, used | set(path), chosen)
                    chosen.pop()

        extend(0, set(), [])
        result = tuple(found)
        self._family_cache[(sources, sinks)] = result
        return result

    def __repr__(self) -> str:
        return f"PlanarNetwork({self.shape!r})"


@lru_cache(maxsize=None)
def gamma0(shape: GrassmannShape) -> PlanarNetwork:
    """The staircase network of a shape.

    Cached per shape so repeated order computations share the path and
    family enumerations.
    """
    return PlanarNetwork(shape)


def _placement(shape: GrassmannShape, matrix):
    """Vertex and edge dicts holding entry (i, j) of a k x (n-k) matrix at
    its essential position: on the edge between (i, j) and its essential
    neighbour, or on the vertex (i, j) when it has none."""
    vertex: dict = {}
    edge: dict = {}
    for cell, near in _essential_neighbours(shape):
        w = matrix[cell[0] - 1][cell[1] - 1]
        if near is None:
            vertex[cell] = w
        else:
            # horizontal edges run right to left, vertical ones top to bottom
            edge[(near, cell) if near[0] == cell[0] else (cell, near)] = w
    return vertex, edge


def essential_weighting(
    beta: PlanePartition, precision: int = 16, seed: int | None = None
) -> list[list[TruncatedSeries]]:
    """The weights realizing beta, as a k x (n-k) matrix of series: entry
    (i, j) is t^c times a unit, c the exponent matrix of beta at (i, j),
    and :func:`weight_matrix` puts it on the essential position of (i, j).

    ``seed=None`` takes every unit to be 1; a non-negative int seed draws
    positive integer units reproducibly, and any other seed raises
    ValueError.
    """
    from .series import TruncatedSeries

    if not beta.is_finite:
        raise ValueError("infinite entries cannot be realized at finite precision")
    exps = weight_exponents(beta)
    units = _unit_matrix(beta.shape, seed)
    return [
        [
            TruncatedSeries.t_power(exps[i][j], precision, coeff=units[i][j])
            for j in range(beta.shape.cols)
        ]
        for i in range(beta.shape.k)
    ]


def _unit_matrix(shape: GrassmannShape, seed: int | None):
    if seed is None:
        return [[1] * shape.cols for _ in range(shape.k)]
    _check_natural(seed, "seed")
    import random

    rng = random.Random(seed)
    return [
        [rng.randint(1, 999983) for _ in range(shape.cols)] for _ in range(shape.k)
    ]


def weight_matrix(weights) -> SeriesMatrix:
    """Matrix of path sums in the staircase network of G(k, k+c) weighted
    by a k x c matrix of series: entry (i, j) of the weights sits on the
    essential position of (i, j), every other edge and vertex has weight
    one, and entry (i, j) of the result adds the weights of all paths from
    source i to sink j.  An empty or ragged matrix, or a weight that is no
    TruncatedSeries, raises ValueError.

    One backward pass over the network, with no path listed: rows from k
    down to 1, columns from 1 to c+1, each vertex keeps its path sums to
    every sink it reaches, and those are its vertex weight times the sum,
    over its out-edges, of the edge weight times the head's path sums.
    Only weights that exist are multiplied in, a path sum that is still the
    empty product takes the first weight as it is, and every sum starts
    from its first term, so the pass costs O(k c^2) series operations.
    Every entry is known to the least precision among the weights, since
    the weight that sets it lies on some path.
    """
    from .series import SeriesMatrix, TruncatedSeries

    k, c = len(weights), len(weights[0]) if weights else 0
    if not c or any(len(row) != c for row in weights):
        raise ValueError("weights must form a non-empty rectangular matrix")
    flat = [w for row in weights for w in row]
    for w in flat:
        if type(w) is not TruncatedSeries:
            raise ValueError(f"weights must be TruncatedSeries: {w!r}")
    vertex_weights, edge_weights = _placement(GrassmannShape(k, k + c), weights)
    # the empty product, told apart by identity: a weight times it is the weight
    one = TruncatedSeries.one(min(w.precision for w in flat))
    sums = {(k + 1, j): {j: one} for j in range(1, c + 1)}
    for r in range(k, 0, -1):
        for col in range(1, c + 2):
            tail = (r, col)
            heads = [(r, col - 1)] if col >= 2 else []
            if col <= c:
                heads.append((r + 1, col))
            total: dict[int, TruncatedSeries] = {}
            for head in heads:
                w = edge_weights.get((tail, head))
                for j, s in sums[head].items():
                    if w is not None:
                        s = w if s is one else w * s
                    total[j] = total[j] + s if j in total else s
            w = vertex_weights.get(tail)
            sums[tail] = total if w is None else {j: w if s is one else w * s for j, s in total.items()}
    return SeriesMatrix([[sums[(i, c + 1)][j] for j in range(1, c + 1)] for i in range(1, k + 1)])


def _least_family_total(network: PlanarNetwork, sources, sinks, vertex, edge) -> ExtNat:
    """Minimum over the vertex-disjoint path families of the summed
    exponents of a placement (vertex and edge dicts)."""
    best: ExtNat | None = None
    for family in network.families(sources, sinks):
        total: ExtNat = 0
        for path in family:
            for v in path:
                if v in vertex:
                    total = total + vertex[v]
            for pair in zip(path, path[1:]):
                if pair in edge:
                    total = total + edge[pair]
        if best is None or total < best:
            best = total
    if best is None:
        raise RuntimeError("internal: no path family in the staircase network")
    return best


def tropical_minor_order(beta: PlanePartition, sources, sinks) -> ExtNat:
    """Vanishing order of the [sources|sinks]-minor of any arc generic for
    beta: minimum over vertex-disjoint path families of the summed exponents.

    Exactness rests on the positivity of the path-family expansion: with
    all family weights entering with coefficient +1, the smallest exponent
    cannot cancel.  Empty index sets give the empty minor, whose one family
    is empty: order 0.
    """
    vertex, edge = _placement(beta.shape, weight_exponents(beta))
    return _least_family_total(gamma0(beta.shape), sources, sinks, vertex, edge)


def plucker_ord(beta: PlanePartition, entries) -> ExtNat:
    """Vanishing order of a Pluecker coordinate on the stratum of beta.

    The multi-index is translated to a minor of the affine matrix of the
    big cell, then evaluated tropically.
    """
    rows, cols = minor_of_multi_index(entries, beta.shape)
    return tropical_minor_order(beta, rows, cols)


def _plucker_orders(beta: PlanePartition):
    """(multi-index, Pluecker order) for every multi-index of the shape, in
    lexicographic order, with the weights placed once for the whole stream.
    The empty minor, multi-index [n-k+1, ..., n], has one empty family:
    order 0.

    Lazy, so a caller that stops early evaluates no further minor.
    """
    shape = beta.shape
    vertex, edge = _placement(shape, weight_exponents(beta))
    network = gamma0(shape)
    for entries in combinations(range(1, shape.n + 1), shape.k):
        rows, cols = minor_of_multi_index(entries, shape)
        yield entries, _least_family_total(network, rows, cols, vertex, edge)


def generic_arc(
    beta: PlanePartition, precision: int = 16, seed: int | None = None
) -> SeriesMatrix:
    """A concrete arc generic for beta, in big-cell form (k x n).

    The affine block is the weight matrix of the essential weights; the
    unit coefficients are all 1 by default or drawn from a generator seeded
    by a non-negative int (any other seed raises ValueError).
    Infinite entries are rejected: they have no finite-precision realization.
    A precision below the largest contact order the weighting must realize,
    the diagonal sum D(1, 1), raises PrecisionExceeded at that position.
    """
    from .series import big_cell_arc

    weights = essential_weighting(beta, precision, seed)  # inf entries raise here
    if precision < essential_profile(beta)[0][0]:
        raise PrecisionExceeded((1, 1), precision + 1)
    return big_cell_arc(weight_matrix(weights))
