"""Independent recomputations used to cross-check the library.

Everything here deliberately avoids the code path it checks: determinants
are expanded over permutations, linear programs are solved by enumerating
basic solutions or by brute-force search over integer plane partitions,
singular loci are read off torus fixed points, and the Pluecker orders of
G(2, 4) come from their closed forms.
"""

from fractions import Fraction
from itertools import combinations, permutations

from schubert_arcs import (
    GrassmannShape,
    Infinity,
    OrderValue,
    PlanePartition,
    TruncatedSeries,
    all_partitions,
    all_plane_partitions,
    floors,
)
from schubert_arcs.plane_partitions import ord_schubert


def shapes_up_to(max_n):
    """Every Grassmannian shape with 2 <= n <= max_n."""
    return [GrassmannShape(k, n) for n in range(2, max_n + 1) for k in range(1, n)]


# -- Determinants and contact orders from scratch -----------------------------


def perm_sign(perm):
    sign = 1
    for i, j in combinations(range(len(perm)), 2):
        if perm[i] > perm[j]:
            sign = -sign
    return sign


def perm_det(matrix, rows, cols):
    """Signed permutation expansion of the [rows|cols] minor (0-based)."""
    rows, cols = tuple(rows), tuple(cols)
    total = TruncatedSeries.zero(matrix.precision)
    for perm in permutations(range(len(rows))):
        term = TruncatedSeries.one(matrix.precision)
        for i, p in enumerate(perm):
            term = term * matrix.entries[rows[i]][cols[p]]
        total = total + term if perm_sign(perm) > 0 else total - term
    return total


def naive_alpha(arc):
    """Rectangle contact orders of an arc, recomputed exhaustively.

    Entry (a, b) is the smallest vanishing order among the minors of size
    k+1-a inside the first k-a+b columns of the full k x n matrix.
    """
    k = arc.nrows
    c = arc.ncols - k
    grid = []
    for a in range(1, k + 1):
        size = k + 1 - a
        row = []
        for b in range(1, c + 1):
            ncols = k - a + b
            best = OrderValue.infinite()
            for rr in combinations(range(k), size):
                for cc in combinations(range(ncols), size):
                    best = best.min_with(perm_det(arc, rr, cc).order())
            row.append(best)
        grid.append(tuple(row))
    return tuple(grid)


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
    for mu in all_partitions(shape, include_empty=True):
        entries = fixed_point_multi_index(mu)
        counts = [(a, sum(1 for e in entries if e > k - a + b)) for a, b in corners]
        if all(count >= a for a, count in counts):
            members.add(mu)
            if any(count > a for a, count in counts):
                singular.add(mu)
    return members, singular


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


def satisfies(lp, point):
    if any(x < 0 for x in point):
        return False
    for coeffs, relation, rhs in lp.constraints:
        lhs = sum(Fraction(c) * x for c, x in zip(coeffs, point))
        rhs = Fraction(rhs)
        if relation == "<=" and lhs > rhs:
            return False
        if relation == ">=" and lhs < rhs:
            return False
        if relation == "=" and lhs != rhs:
            return False
    return True


def brute_lp_max(lp):
    """Best objective value over all feasible basic solutions.

    Sound for bounded feasible regions, where the maximum sits at a vertex
    and every vertex solves some square subsystem of tight constraints.
    Returns None when nothing is feasible.
    """
    n = lp.n_vars
    planes = [(coeffs, rhs) for coeffs, _, rhs in lp.constraints]
    planes += [([int(i == j) for j in range(n)], 0) for i in range(n)]
    best = None
    for chosen in combinations(planes, n):
        point = solve_square([p[0] for p in chosen], [p[1] for p in chosen])
        if point is None or not satisfies(lp, point):
            continue
        value = sum(Fraction(c) * x for c, x in zip(lp.objective, point))
        if best is None or value > best:
            best = value
    return best


def brute_force_arnold(lam, height_bound):
    """Maximize ord(lambda)(beta)/|beta| over integer plane partitions of
    bounded height; an enumeration cross-check for the linear program.

    The maximum over all of SV(k,n) is attained at a rational vertex, so
    the bounded search equals the true Arnold multiplicity once the bound
    covers a scaled vertex.
    """
    if not lam:
        raise ValueError("the pair with the whole Grassmannian has no threshold")
    best = Fraction(0)
    for beta in all_plane_partitions(lam.shape, height_bound, include_zero=False):
        ratio = Fraction(ord_schubert(beta, lam), beta.volume)
        if ratio > best:
            best = ratio
    return best


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
