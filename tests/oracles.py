"""Independent recomputations used to cross-check the library.

Everything here deliberately avoids the code path it checks: determinants
are expanded over permutations in a separate series arithmetic on
coefficient tuples, linear programs are solved by enumerating basic
solutions, by the general two-phase simplex method on their equation
form, or by brute-force search over integer plane partitions,
singular loci are read off torus fixed points, the Pluecker orders of
G(2, 4) come from their closed forms, big-cell membership is decided
by series determinants rather than by constant terms, and plateau corners
by scanning whole regions.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import lcm
from types import SimpleNamespace

from schubert_arcs import (
    INF,
    GrassmannShape,
    Infinity,
    NotAnArc,
    NotInBigCell,
    PlanePartition,
    SeriesMatrix,
    TruncatedSeries,
    all_partitions,
    all_plane_partitions,
    floors,
)
from schubert_arcs.lct import _var
from schubert_arcs.partitions import schubert_conditions
from schubert_arcs.plane_partitions import _diagonal_positions, ord_schubert
from schubert_arcs.series import series_det
from schubert_arcs.simplex import LPSolution


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
    """Signed permutation expansion of the [rows|cols] minor (0-based), with
    the reference arithmetic below in place of the series kernel."""
    rows, cols = tuple(rows), tuple(cols)
    prec = matrix.precision
    total = (0,) * (prec + 1)
    for perm in permutations(range(len(rows))):
        term = (1,) + (0,) * prec
        for i, p in enumerate(perm):
            term = series_mul(term, matrix.entries[rows[i]][cols[p]].coeffs)
        total = series_add(total, term) if perm_sign(perm) > 0 else series_sub(total, term)
    return TruncatedSeries(total)


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


# -- Minor labels and column slices ---------------------------------------------


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


def column_slice(matrix, ncols):
    return SeriesMatrix([row[:ncols] for row in matrix.entries])


# -- Big-cell membership by series determinants ---------------------------------


def _has_unit_maximal_minor(arc):
    k, n = arc.nrows, arc.ncols
    return any(series_det(arc, range(k), cols).is_unit for cols in combinations(range(n), k))


def check_big_cell_by_series_det(arc):
    """The arc and big-cell checks of invariant_factor_profile, each read off
    series determinants: some maximal minor, and the minor on the last k
    columns, must be units."""
    k, n = arc.nrows, arc.ncols
    if not k < n:
        raise NotAnArc(f"a {k} x {n} matrix does not present a proper subspace")
    if not _has_unit_maximal_minor(arc):
        raise NotAnArc("no maximal minor is a unit")
    if not series_det(arc, range(k), range(n - k, n)).is_unit:
        raise NotInBigCell(
            "the minor on the last k columns is not a unit; "
            "apply borel_translate first"
        )


def borel_translate_by_series_det(arc, seed=0):
    """borel_translate with every random translate built in full and
    accepted when its series minor on the last k columns is a unit."""
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
        if series_det(candidate, range(k), range(n - k, n)).is_unit:
            return candidate
    raise RuntimeError("internal: failed to reach the big cell by translation")


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
    for i, j in _diagonal_positions(shape, *corners[0]):
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
        for i, j in _diagonal_positions(shape, a, b):
            row[_var(shape, i, j)] += 1
        for i, j in _diagonal_positions(shape, a2, b2):
            row[_var(shape, i, j)] -= 1
        lp.add(row, "=", 0)
    return lp


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
