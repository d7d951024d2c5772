"""Independent recomputations that the benchmark checks results against.

Nothing here imports schubert_arcs.  Plane partitions are tuples of rows
whose entries are ints or ``math.inf``; partitions are tuples of parts.
The formulas follow the definitions in the package documentation, but the
algorithms differ from the package's: tropical minors come from a dynamic
program over columns of the staircase network instead of an enumeration of
path families, Pluecker orders on G(2, 4) from their six closed forms, and
profiles of small arcs from permutation-expansion determinants.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import combinations, permutations

INF = math.inf


# -- Plane partitions and partitions ------------------------------------------


def sub_ext(a, b):
    """Saturating difference: infinity minus anything stays infinite."""
    if a == INF:
        return INF
    if b == INF:
        raise ValueError("finite minus infinite")
    return a - b


def volume(beta):
    return sum(e for row in beta for e in row)


def is_plane_partition(beta, k, c) -> bool:
    if len(beta) != k or any(len(row) != c for row in beta):
        return False
    for i in range(k):
        for j in range(c):
            e = beta[i][j]
            if e != INF and not (isinstance(e, int) and e >= 0):
                return False
            if j + 1 < c and e < beta[i][j + 1]:
                return False
            if i + 1 < k and e < beta[i + 1][j]:
                return False
    return True


def diagonal_sum(beta, a, b):
    """Sum along the diagonal from the 1-based position (a, b)."""
    k, c = len(beta), len(beta[0])
    total = 0
    while a <= k and b <= c:
        total += beta[a - 1][b - 1]
        a, b = a + 1, b + 1
    return total


def essential(beta):
    k, c = len(beta), len(beta[0])
    return tuple(
        tuple(diagonal_sum(beta, i, j) for j in range(1, c + 1)) for i in range(1, k + 1)
    )


def part(parts, i):
    return parts[i - 1] if 1 <= i <= len(parts) else 0


def corners(parts):
    """Southeast corners (a, b) of the diagram of a partition."""
    return [
        (a, parts[a - 1]) for a in range(1, len(parts) + 1) if parts[a - 1] > part(parts, a + 1)
    ]


def ord_schubert(beta, parts):
    """Contact order with the Schubert variety of ``parts``: the least
    diagonal sum over its corners."""
    return min(diagonal_sum(beta, a, b) for a, b in corners(parts))


def lct_rectangle(a, b, k, c) -> Fraction:
    """Threshold of the rectangle (b^a): min over s of (a+s)(b+s)/(s+1)."""
    r = min(k - a, c - b)
    return min(Fraction((a + s) * (b + s), s + 1) for s in range(r + 1))


def partitions_in_box(k, c):
    """Every partition with at most k parts, each at most c, empty included."""
    out = []

    def rec(prefix, bound):
        out.append(tuple(prefix))
        if len(prefix) == k:
            return
        for p in range(1, bound + 1):
            rec(prefix + [p], p)

    rec([], c)
    return out


def singular_components(parts, k, c):
    """Components of the singular locus, from the extended corner list."""
    ext = corners(parts)
    if not any(b == c for _, b in ext):
        ext.insert(0, (0, c))
    if not any(a == k for a, _ in ext):
        ext.append((k, 0))
    comps = []
    for a, b in ext[1:-1]:
        new = [max(part(parts, i), b + 1) for i in range(1, a + 2)]
        new += [part(parts, i) for i in range(a + 2, k + 1)]
        comps.append(tuple(p for p in new if p))
    return comps


def nash_valuation(parts, mu, k, c):
    """Plane partition of the Nash valuation of the component ``mu``:
    infinite on lam, one on mu outside lam, zero elsewhere."""
    return tuple(
        tuple(
            INF if j <= part(parts, i) else 1 if j <= part(mu, i) else 0
            for j in range(1, c + 1)
        )
        for i in range(1, k + 1)
    )


# -- Tropical minors on the staircase network ---------------------------------


def weight_exponents(beta):
    """Exponent of the essential weight at each position (i, j): compare
    the box below-right of (i, j); wider than tall takes the row
    difference, taller than wide the column difference, square the entry."""
    k, c = len(beta), len(beta[0])
    out = []
    for i in range(k):
        row = []
        for j in range(c):
            below, right = k - 1 - i, c - 1 - j
            if below < right:
                row.append(sub_ext(beta[i][j], beta[i][j + 1]))
            elif below > right:
                row.append(sub_ext(beta[i][j], beta[i + 1][j]))
            else:
                row.append(beta[i][j])
        out.append(tuple(row))
    return tuple(out)


def column_costs(beta):
    """seg[col][x][y]: cost of a path entering column ``col`` at row x
    (through the horizontal edge from column col+1) and leaving it at row y.

    A square position weighs its vertex, a wide one the horizontal edge
    entering it, a tall one the vertical edge leaving it downwards.  All
    indices are 1-based; row k+1 is the sink row.
    """
    k, c = len(beta), len(beta[0])
    exps = weight_exponents(beta)
    vertex, enter, down = {}, {}, {}
    for i in range(1, k + 1):
        for j in range(1, c + 1):
            below, right = k - i, c - j
            e = exps[i - 1][j - 1]
            if below == right:
                vertex[(i, j)] = e
            elif below < right:
                enter[(i, j)] = e
            else:
                down[(i, j)] = e
    seg = {}
    for col in range(1, c + 1):
        table = {}
        for x in range(1, k + 1):
            total = enter.get((x, col), 0)
            for y in range(x, k + 1):
                total += vertex.get((y, col), 0)
                table[(x, y)] = total
                total += down.get((y, col), 0)
        seg[col] = table
    return seg


def tropical_minor(seg, k, c, sources, sinks):
    """Least total weight of a vertex-disjoint family joining the u-th
    source row to the u-th sink column, by dynamic programming over the
    columns from right to left.  The state is the tuple of rows at which
    the surviving paths enter the current column."""
    s = len(sources)
    if s == 0:
        return 0
    states = {tuple(sources): 0}
    for col in range(c, 0, -1):
        table = seg[col]
        nxt = {}
        for rows, cost in states.items():
            m = len(rows)
            ends = m > 0 and sinks[m - 1] == col
            if col == 1 and m and not (m == 1 and ends):
                continue
            _extend(rows, 0, ends, k, table, cost, [], nxt)
        states = nxt
        if not states:
            return INF
    return states.get((), INF)


def _extend(rows, u, ends, k, table, cost, exits, out):
    m = len(rows)
    if u == m:
        key = tuple(exits[: m - 1] if ends else exits)
        if cost < out.get(key, INF):
            out[key] = cost
        return
    x = rows[u]
    if ends and u == m - 1:
        _extend(rows, u + 1, ends, k, table, cost + table[(x, k)], exits + [k], out)
        return
    top = rows[u + 1] - 1 if u + 1 < m else k
    for y in range(x, top + 1):
        _extend(rows, u + 1, ends, k, table, cost + table[(x, y)], exits + [y], out)


def minor_of_multi_index(entries, k, n):
    """(rows, cols) of the big-cell minor matching a Pluecker multi-index."""
    cols = tuple(e for e in entries if e <= n - k)
    dropped = {n + 1 - e for e in entries if e > n - k}
    rows = tuple(i for i in range(1, k + 1) if i not in dropped)
    return rows, cols


def plucker_orders(beta, k, n):
    """Order of every Pluecker coordinate, keyed by multi-index in
    lexicographic order."""
    seg = column_costs(beta)
    c = n - k
    out = {}
    for entries in combinations(range(1, n + 1), k):
        rows, cols = minor_of_multi_index(entries, k, n)
        out[entries] = tropical_minor(seg, k, c, rows, cols)
    return out


def plucker_order(beta, k, n, entries):
    rows, cols = minor_of_multi_index(entries, k, n)
    return tropical_minor(column_costs(beta), k, n - k, rows, cols)


def g24_orders(beta):
    """The six closed-form Pluecker orders on G(2, 4)."""
    (b11, b12), (b21, b22) = beta
    return {
        (1, 2): b11 + b22,
        (1, 3): min(b11, sub_ext(b12 + b21, b22)),
        (1, 4): b21,
        (2, 3): b12,
        (2, 4): b22,
        (3, 4): 0,
    }


# -- Arcs as integer polynomial matrices --------------------------------------


def path_sum_matrix(beta, prec, units):
    """Affine block of a generic arc of beta: entry (i, j) sums, over the
    monotone staircase paths from source i to sink j, the product of the
    essential weights ``units[i][j] * t^e`` met along the path.

    Computed by a sweep over the grid, one source at a time; polynomials
    are coefficient lists truncated at degree ``prec``.
    """
    k, c = len(beta), len(beta[0])
    exps = weight_exponents(beta)

    def weight(i, j):
        poly = [0] * (prec + 1)
        if exps[i - 1][j - 1] <= prec:
            poly[exps[i - 1][j - 1]] = units[i - 1][j - 1]
        return poly

    kind = {}
    for i in range(1, k + 1):
        for j in range(1, c + 1):
            below, right = k - i, c - j
            kind[(i, j)] = "vertex" if below == right else "enter" if below < right else "down"
    one = [1] + [0] * prec
    matrix = []
    for src in range(1, k + 1):
        # arrive[(r, col)]: weighted sum over partial paths from src that
        # stand on (r, col), its vertex weight included
        arrive = {}
        for col in range(c, 0, -1):
            for r in range(1, k + 1):
                if col == c:
                    total = one if r == src else None
                else:
                    total = arrive.get((r, col + 1))
                if total is not None and kind[(r, col)] == "enter":
                    total = poly_mul(total, weight(r, col), prec)
                above = arrive.get((r - 1, col))
                if above is not None:
                    if kind[(r - 1, col)] == "down":
                        above = poly_mul(above, weight(r - 1, col), prec)
                    total = above if total is None else poly_add(total, above)
                if total is None:
                    continue
                if kind[(r, col)] == "vertex":
                    total = poly_mul(total, weight(r, col), prec)
                arrive[(r, col)] = total
        row = []
        for j in range(1, c + 1):
            last = arrive.get((k, j), [0] * (prec + 1))
            if kind[(k, j)] == "down":
                last = poly_mul(last, weight(k, j), prec)
            row.append(list(last))
        matrix.append(row)
    return matrix


def poly_mul(a, b, prec):
    out = [0] * (prec + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(prec + 1 - i):
                if b[j]:
                    out[i + j] += x * b[j]
    return out


def poly_add(a, b):
    return [x + y for x, y in zip(a, b)]


def big_cell_arc(affine, prec):
    """(X | D) with D the antidiagonal identity."""
    k = len(affine)
    rows = []
    for i, row in enumerate(affine):
        pad = [[0] * (prec + 1) for _ in range(k)]
        pad[k - 1 - i] = [1] + [0] * prec
        rows.append([list(p) for p in row] + pad)
    return rows


def leave_big_cell(arc, pick):
    """Right-multiply by an upper-triangular integer matrix that kills the
    unit in one antidiagonal column: column j becomes a*col_j - col_i for an
    earlier column i whose constant term has a in the unit's row.  Returns
    None when no affine entry has a nonzero constant term, in which case no
    upper-triangular change leaves the big cell.  ``pick`` chooses among
    the candidates (a callable taking a list)."""
    k, n = len(arc), len(arc[0])
    candidates = [(r, i) for r in range(k) for i in range(n - k) if arc[r][i][0]]
    if not candidates:
        return None
    r, i = pick(candidates)
    j = n - 1 - r
    a = arc[r][i][0]
    out = [[list(p) for p in row] for row in arc]
    for row in range(k):
        out[row][j] = [a * x - y for x, y in zip(arc[row][j], arc[row][i])]
    return out


def format_poly(poly) -> str:
    parts = []
    for e, coef in enumerate(poly):
        if not coef:
            continue
        sign = "-" if coef < 0 else "+"
        mag = abs(coef)
        if e == 0:
            body = str(mag)
        else:
            tp = "t" if e == 1 else f"t^{e}"
            body = tp if mag == 1 else f"{mag}*{tp}"
        parts.append((sign, body))
    if not parts:
        return "0"
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return text + "".join(sign + body for sign, body in parts[1:])


def format_arc(arc) -> str:
    return "; ".join(", ".join(format_poly(p) for p in row) for row in arc)


_TERM = re.compile(r"([+-]?)(\d+(?:/\d+)?)?\*?(t(?:\^(\d+))?)?")


def parse_poly(text, prec):
    text = text.replace(" ", "")
    poly = [Fraction(0)] * (prec + 1)
    pos = 0
    if not text:
        raise ValueError("empty series")
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos or (m.group(2) is None and m.group(3) is None):
            raise ValueError(f"cannot read {text!r}")
        coef = Fraction(m.group(2)) if m.group(2) else Fraction(1)
        if m.group(1) == "-":
            coef = -coef
        exp = (int(m.group(4)) if m.group(4) else 1) if m.group(3) else 0
        if exp > prec:
            raise ValueError(f"term beyond the precision in {text!r}")
        poly[exp] += coef
        pos = m.end()
    return poly


def parse_arc(text, prec):
    return [[parse_poly(cell, prec) for cell in row.split(",")] for row in text.split(";")]


def poly_order(poly):
    for e, coef in enumerate(poly):
        if coef:
            return e
    return None


def _perm_sign(perm):
    sign = 1
    for i, j in combinations(range(len(perm)), 2):
        if perm[i] > perm[j]:
            sign = -sign
    return sign


def minor_poly(arc, rows, cols, prec):
    total = [0] * (prec + 1)
    for perm in permutations(range(len(rows))):
        term = [1] + [0] * prec
        for u, p in enumerate(perm):
            term = poly_mul(term, arc[rows[u]][cols[p]], prec)
        sign = _perm_sign(perm)
        total = [x + sign * y for x, y in zip(total, term)]
    return total


def arc_profile(arc, prec):
    """Plane partition of an arc by brute force: entry (a, b) of the
    rectangle profile is the least order among the (k+1-a)-minors inside
    the first k-a+b columns; consecutive diagonal differences give beta.
    Returns None when an order is only known as a lower bound."""
    k, n = len(arc), len(arc[0])
    c = n - k
    alpha = []
    for a in range(1, k + 1):
        size = k + 1 - a
        row = []
        for b in range(1, c + 1):
            best = None
            for rr in combinations(range(k), size):
                for cc in combinations(range(k - a + b), size):
                    o = poly_order(minor_poly(arc, rr, cc, prec))
                    if o is None:
                        o = prec + 1
                    best = o if best is None else min(best, o)
            if best > prec:
                return None
            row.append(best)
        alpha.append(row)

    def at(i, j):
        return alpha[i - 1][j - 1] if i <= k and j <= c else 0

    return tuple(
        tuple(at(i, j) - at(i + 1, j + 1) for j in range(1, c + 1)) for i in range(1, k + 1)
    )


# -- Text formats the CLI prints ------------------------------------------------


def format_beta(beta) -> str:
    return "; ".join(" ".join("inf" if e == INF else str(e) for e in row) for row in beta)


def parse_beta(text):
    return tuple(
        tuple(INF if tok == "inf" else int(tok) for tok in row.split()) for row in text.split(";")
    )


def format_parts(parts) -> str:
    return ",".join(str(p) for p in parts) if parts else "0"
