"""Planar networks: path counts, Lindstrom expansions, tropical orders."""

import hashlib
import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from schubert_arcs import (
    INF,
    GrassmannShape,
    PlanePartition,
    PrecisionExceeded,
    generic_arc,
    invariant_factor_profile,
    weight_exponents,
)
from schubert_arcs.nash import nash_valuations
from schubert_arcs.networks import (
    PlanarNetwork,
    _placement,
    _plucker_orders,
    essential_weighting,
    gamma0,
    plucker_ord,
    tropical_minor_order,
    weight_matrix,
)
from schubert_arcs.partitions import all_partitions, minor_of_multi_index
from schubert_arcs.plane_partitions import all_plane_partitions, essential_profile
from schubert_arcs.series import TruncatedSeries, big_cell_arc, format_arc_matrix, series_det

from oracles import (
    column_sweep_minor_order,
    final_minor,
    generic_arc_by_paths,
    grown_plane_partition,
    lindstrom_minor,
    path_weight,
    random_plane_partition,
    shapes_up_to,
    staircase_paths,
    weight_matrix_by_paths,
)

G24 = GrassmannShape(2, 4)
G25 = GrassmannShape(2, 5)


def test_gamma0_is_cached_per_shape():
    assert gamma0(G24) is gamma0(G24)
    assert gamma0(G24) is not gamma0(G25)


def test_path_counts_and_endpoints():
    for shape in (G25, GrassmannShape(3, 7)):
        net = gamma0(shape)
        k, c = shape.k, shape.cols
        for i in range(1, k + 1):
            for j in range(1, c + 1):
                paths = net.paths(i, j)
                assert len(paths) == comb((c - j) + (k - i), c - j)
                assert set(paths) == set(staircase_paths(shape, i, j))
                # listed by the columns where they step down, increasing
                downs = [[a[1] for a, b in zip(p, p[1:]) if b[0] > a[0]] for p in paths]
                assert downs == sorted(downs) and len(set(map(tuple, downs))) == len(downs)
                for path in paths:
                    assert path[0] == (i, c + 1)
                    assert path[-1] == (k + 1, j)
                    for (r, col), (r2, col2) in zip(path, path[1:]):
                        assert (r2, col2) in ((r, col - 1), (r + 1, col))


def test_source_sink_labels_validated():
    net = gamma0(G24)
    assert net.paths(2, 1)[0][0] == (2, 3)
    assert net.paths(1, 1)[0][-1] == (3, 1)
    # a label is an int in range, even where the caches hold an equal one:
    # 2.0 and True would find the paths and families of 2 and 1
    net.families((1,), (2,))
    for bad in (1.5, 2.0, True, 0, 3):
        for check in (lambda x: net.paths(x, 1), lambda x: net.paths(1, x)):
            with pytest.raises(ValueError):
                check(bad)
        with pytest.raises(ValueError):
            net.families((1,), (bad,))
    beta = PlanePartition([[2, 1], [1, 0]], G24)
    for sources, sinks in (((1.5,), (1,)), ((1,), (2.0,)), ((True,), (1,))):
        with pytest.raises(ValueError):
            tropical_minor_order(beta, sources, sinks)


def test_families_validated():
    net = gamma0(G25)
    with pytest.raises(ValueError):
        net.families((1, 2), (1,))
    with pytest.raises(ValueError):
        net.families((2, 1), (1, 2))
    with pytest.raises(ValueError):
        net.families((1, 2), (2, 2))


def test_weight_matrix_by_prime_substitution():
    # Constant weights w = [[2,3,5],[7,11,13]] make every path sum a plain
    # integer, exposing the path structure: a prime factorization per path.
    prec = 4
    wmat = [[TruncatedSeries([p] + [0] * prec) for p in row] for row in [[2, 3, 5], [7, 11, 13]]]
    X = weight_matrix(wmat)
    expected = [[5032, 718, 65], [1001, 143, 13]]
    for i in range(2):
        for j in range(3):
            assert X.entries[i][j] == TruncatedSeries([expected[i][j]] + [0] * prec)


def test_weight_matrix_matches_path_enumeration():
    # The backward pass against the sum over every listed path, with random
    # units, on every shape up to n = 10 and on one G(7, 14) arc.
    rng = random.Random(11)
    for shape in shapes_up_to(10):
        for _ in range(2):
            beta = random_plane_partition(shape, 3, rng)
            w = essential_weighting(beta, 16, seed=rng.randrange(10**6))
            assert weight_matrix(w) == weight_matrix_by_paths(w), beta
    shape = GrassmannShape(7, 14)
    w = essential_weighting(PlanePartition.constant(shape, 2), 16, seed=7)
    assert weight_matrix(w) == weight_matrix_by_paths(w)


def test_weight_matrix_with_mixed_precisions():
    # Weights at precisions 5 to 12: every entry is known to the smallest
    # one, as the path sums are.  The first vertex weight is the finest,
    # and the empty product that starts each sink's sums never sets the
    # precision.
    shape = GrassmannShape(3, 6)
    rng = random.Random(13)
    wmat = [
        [
            TruncatedSeries.t_power(rng.randint(0, 2), rng.choice((6, 9, 12)), coeff=rng.randint(1, 9))
            for _ in range(3)
        ]
        for _ in range(3)
    ]
    wmat[0][0] = TruncatedSeries.t_power(1, 12, coeff=Fraction(3, 2))
    wmat[2][1] = TruncatedSeries.t_power(2, 5, coeff=-4)
    got = weight_matrix(wmat)
    assert got == weight_matrix_by_paths(wmat)
    assert got.precision == 5
    assert {e.precision for row in got.entries for e in row} == {5}


def test_path_sums_list_no_path(monkeypatch):
    def no_paths(self, i, j):
        raise AssertionError("path sums must not list paths")

    monkeypatch.setattr(PlanarNetwork, "paths", no_paths)
    shape = GrassmannShape(3, 6)
    beta = PlanePartition([[2, 1, 1], [1, 1, 0], [1, 0, 0]], shape)
    assert weight_matrix(essential_weighting(beta, 8, seed=1)).nrows == 3
    assert invariant_factor_profile(generic_arc(beta, seed=1)) == beta


def test_path_weight_of_an_unweighted_path_is_one():
    # The wedge (2, 2) runs from source 2 straight to sink 2 and passes no
    # essential position; given a weight, it carries just that weight.
    # The path through v(2, 2) and v(2, 1) passes two, of weight 3t each.
    path = ((2, 3), (3, 2))
    assert path in staircase_paths(G24, 2, 2, [(2, 2)])
    assert path not in staircase_paths(G24, 2, 2)
    wmat = [[TruncatedSeries.t_power(1, 8, coeff=3)] * 2] * 2
    assert path_weight(wmat, path) == TruncatedSeries.one(8)
    wedge = TruncatedSeries.t_power(2, 8, coeff=5)
    assert path_weight(wmat, path, {(2, 2): wedge}) == wedge
    two = ((2, 3), (2, 2), (2, 1), (3, 1))
    assert path_weight(wmat, two, {(2, 2): wedge}) == TruncatedSeries.t_power(2, 8, coeff=9)


def test_essential_positions_on_the_staircase():
    beta = PlanePartition([[2, 1, 1], [1, 1, 0]], G25)
    vertex, edge = _placement(G25, essential_weighting(beta, 8))
    exps = weight_exponents(beta)
    assert set(vertex) == {(1, 2), (2, 3)}
    assert set(edge) == {
        ((1, 2), (1, 1)),
        ((1, 3), (2, 3)),
        ((2, 2), (2, 1)),
        ((2, 3), (2, 2)),
    }
    assert vertex[(1, 2)] == TruncatedSeries.t_power(exps[0][1], 8)
    assert edge[((1, 3), (2, 3))] == TruncatedSeries.t_power(exps[0][2], 8)


def test_placement_covers_each_cell_once_on_staircase_steps():
    # each cell's entry sits once: on its own vertex, or on a left or down
    # step of the staircase that starts or ends at the cell
    for shape in shapes_up_to(8):
        k, c = shape.k, shape.cols
        cells = [(i, j) for i in range(1, k + 1) for j in range(1, c + 1)]
        nodes = {*cells, *[(i, c + 1) for i in range(1, k + 1)], *[(k + 1, j) for j in range(1, c + 1)]}
        vertex, edge = _placement(shape, [[(i, j) for j in range(1, c + 1)] for i in range(1, k + 1)])
        assert all(key == cell for key, cell in vertex.items())
        for (tail, head), cell in edge.items():
            assert head in ((tail[0], tail[1] - 1), (tail[0] + 1, tail[1])), (shape, tail, head)
            assert tail in nodes and head in nodes and cell in (tail, head)
        assert sorted([*vertex.values(), *edge.values()]) == cells


def test_weighting_shape_checked():
    # the shape is read from the weights: an empty or ragged matrix has none
    one = TruncatedSeries.one(4)
    for wmat in ([], [[]], [[], []], [[one, one], [one]], [[one], [one, one]]):
        with pytest.raises(ValueError, match="non-empty rectangular"):
            weight_matrix(wmat)


def test_weight_matrix_reads_its_shape():
    # a k x c matrix weights G(k, k+c), k > c included; its transpose
    # weights G(c, k+c)
    rng = random.Random(5)
    wmat = [
        [TruncatedSeries.t_power(rng.randint(0, 2), rng.choice((6, 9)), coeff=rng.randint(1, 9))
         for _ in range(2)]
        for _ in range(4)
    ]
    transposed = [list(col) for col in zip(*wmat)]
    for weights, size in ((wmat, (4, 2)), (transposed, (2, 4))):
        got = weight_matrix(weights)
        assert (got.nrows, got.ncols, got.precision) == (*size, 6)
        assert got == weight_matrix_by_paths(weights)


def test_weights_must_be_series():
    # a float, bool or int weight is rejected before weight_matrix
    # multiplies with it
    t = TruncatedSeries.t_power(1, 4)
    for bad in (1.5, True, 3):
        for wmat in ([[bad, t], [t, t]], [[t, t], [t, bad]]):
            with pytest.raises(ValueError, match="weights must be TruncatedSeries"):
                weight_matrix(wmat)


def test_infinite_entries_have_no_weighting():
    beta = PlanePartition([[INF, 1], [1, 0]], G24)
    with pytest.raises(ValueError):
        essential_weighting(beta, 8)


def test_lindstrom_minor_equals_determinant():
    rng = random.Random(20)
    for shape in shapes_up_to(5):
        net = gamma0(shape)
        for seed in range(3):
            beta = random_plane_partition(shape, 2, rng)
            w = essential_weighting(beta, 16, seed=seed)
            X = weight_matrix(w)
            for size in range(1, min(shape.k, shape.cols) + 1):
                for rows in itertools.combinations(range(1, shape.k + 1), size):
                    for cols in itertools.combinations(range(1, shape.cols + 1), size):
                        lhs = lindstrom_minor(net, w, rows, cols)
                        rhs = series_det(X, [r - 1 for r in rows], [c - 1 for c in cols])
                        assert lhs == rhs


def test_empty_minor_is_one():
    beta = PlanePartition([[1, 1], [1, 0]], G24)
    w = essential_weighting(beta, 8)
    assert lindstrom_minor(gamma0(G24), w, (), ()) == TruncatedSeries.one(8)
    assert tropical_minor_order(beta, (), ()) == 0
    assert column_sweep_minor_order(beta, (), ()) == 0


def test_tropical_order_matches_symbolic_minor():
    # Positive unit coefficients cannot cancel across a +1-signed family
    # expansion, so the symbolic order is exactly the tropical minimum.
    rng = random.Random(21)
    for trial in range(60):
        shape = rng.choice(shapes_up_to(5))
        beta = random_plane_partition(shape, 3, rng)
        net = gamma0(shape)
        w = essential_weighting(beta, 32, seed=trial)
        size = rng.randint(1, min(shape.k, shape.cols))
        rows = tuple(sorted(rng.sample(range(1, shape.k + 1), size)))
        cols = tuple(sorted(rng.sample(range(1, shape.cols + 1), size)))
        symbolic = lindstrom_minor(net, w, rows, cols).order()
        assert symbolic == tropical_minor_order(beta, rows, cols)


def test_tropical_orders_match_the_column_sweep():
    # The sweep walks no path family, so it checks the family minimum
    # independently; Nash valuations bring infinite exponents.
    rng = random.Random(22)
    for shape in shapes_up_to(8):
        betas = [random_plane_partition(shape, 3, rng) for _ in range(3)]
        for lam in all_partitions(shape):
            betas += nash_valuations(lam)
        for beta in betas:
            for entries in itertools.combinations(range(1, shape.n + 1), shape.k):
                rows, cols = minor_of_multi_index(entries, shape)
                expected = column_sweep_minor_order(beta, rows, cols)
                assert tropical_minor_order(beta, rows, cols) == expected, (beta, rows, cols)
                assert plucker_ord(beta, entries) == expected, (beta, entries)


def test_family_minimum_stops_at_the_first_family_of_total_zero(monkeypatch):
    """Exponents are naturals or inf, so no family totals less than 0: on
    strata of G(3,6) and G(4,8) no family after the first one of total 0 is
    read, and every Pluecker order is still the column sweep's."""
    rng = random.Random(43)
    listed = PlanarNetwork.families
    read = []

    def counted(self, sources, sinks):
        for family in listed(self, sources, sinks):
            read.append(family)
            yield family

    monkeypatch.setattr(PlanarNetwork, "families", counted)
    stops = 0
    for shape in (GrassmannShape(3, 6), GrassmannShape(4, 8)):
        for _ in range(5):
            beta = random_plane_partition(shape, 3, rng)
            vertex, edge = _placement(shape, weight_exponents(beta))
            for entries in itertools.combinations(range(1, shape.n + 1), shape.k):
                rows, cols = minor_of_multi_index(entries, shape)
                read.clear()
                assert plucker_ord(beta, entries) == column_sweep_minor_order(beta, rows, cols)
                families = listed(gamma0(shape), rows, cols)
                totals = [
                    sum((vertex.get(v, 0) for path in family for v in path), 0)
                    + sum((edge.get(pair, 0) for path in family for pair in zip(path, path[1:])), 0)
                    for family in families
                ]
                first = totals.index(0) + 1 if 0 in totals else len(families)
                assert read == list(families[:first]), (beta, entries)
                stops += first < len(families)
    assert stops >= 100, stops


def test_final_minor_orders_recover_the_profile():
    for shape in (G24, GrassmannShape(3, 6)):
        net = gamma0(shape)
        for beta in all_plane_partitions(shape, 2):
            alpha = essential_profile(beta)
            for a in range(1, shape.k + 1):
                for b in range(1, shape.cols + 1):
                    rows, cols = final_minor(shape, a, b)
                    assert len(net.families(rows, cols)) == 1
                    assert tropical_minor_order(beta, rows, cols) == alpha[a - 1][b - 1]


def test_plucker_ord_g24_closed_forms():
    cases = [
        PlanePartition([[3, 2], [2, 1]], G24),
        PlanePartition([[INF, 1], [1, 1]], G24),
        PlanePartition([[INF, INF], [2, 1]], G24),
        PlanePartition([[INF, INF], [INF, INF]], G24),
        PlanePartition([[0, 0], [0, 0]], G24),
        PlanePartition([[4, 4], [1, 0]], G24),
    ]
    for beta in cases:
        b11, b12 = beta.at(1, 1), beta.at(1, 2)
        b21, b22 = beta.at(2, 1), beta.at(2, 2)
        assert plucker_ord(beta, (1, 2)) == b11 + b22
        assert plucker_ord(beta, (1, 3)) == min(b11, b12 + b21 - b22)
        assert plucker_ord(beta, (1, 4)) == b21
        assert plucker_ord(beta, (2, 3)) == b12
        assert plucker_ord(beta, (2, 4)) == b22
        assert plucker_ord(beta, (3, 4)) == 0


def test_plucker_ord_validates_entries():
    beta = PlanePartition([[1, 1], [1, 0]], G24)
    with pytest.raises(ValueError):
        plucker_ord(beta, (1, 5))
    with pytest.raises(ValueError):
        plucker_ord(beta, (2, 2))
    with pytest.raises(ValueError):
        plucker_ord(beta, (0, 1))
    # entries are ints, never truncated: (True, 3.2) is not [1, 3]
    with pytest.raises(ValueError, match="integers"):
        plucker_ord(beta, (True, 3.2))
    with pytest.raises(ValueError, match="increasing"):
        plucker_ord(beta, (3, 1))


def test_plucker_order_stream_matches_single_coordinates():
    # One weight placement per stream must give every coordinate the order
    # plucker_ord gives it alone, in lexicographic order of multi-indexes.
    rng = random.Random(3)
    for shape in (G24, G25, GrassmannShape(3, 6), GrassmannShape(3, 7), GrassmannShape(4, 8)):
        k, c = shape.k, shape.cols
        cases = []
        for _ in range(4):
            beta = random_plane_partition(shape, 3, rng)
            cases += [beta, grown_plane_partition(beta, rng.randint(1, 4), rng)]
            a, b = rng.randint(1, k), rng.randint(1, c)
            rows = [[INF if i < a and j < b else e for j, e in enumerate(row)]
                    for i, row in enumerate(beta.rows)]
            cases.append(PlanePartition(rows, shape))
        singular = [lam for lam in all_partitions(shape) if lam and nash_valuations(lam)]
        for lam in rng.sample(singular, min(3, len(singular))):
            cases += nash_valuations(lam)
        for beta in cases:
            expected = [
                (entries, plucker_ord(beta, entries))
                for entries in itertools.combinations(range(1, shape.n + 1), k)
            ]
            assert list(_plucker_orders(beta)) == expected, beta


def test_generic_arc_frozen_text():
    beta = PlanePartition([[2, 2], [2, 1]], G24)
    arc = generic_arc(beta, seed=None)
    assert format_arc_matrix(arc) == "t^2+t^3, t^2, 0, 1; t^2, t, 1, 0"
    assert invariant_factor_profile(arc) == beta


def _generic_arc_inputs():
    """Every G(2, 4) plane partition of height at most 3, then seeded ones
    on G(3, 6) to G(5, 10); each with every unit 1 and with seeded units."""
    rng = random.Random(16)
    for beta in all_plane_partitions(G24, 3):
        yield beta, None
        yield beta, rng.randrange(10**6)
    for k in (3, 4, 5):
        shape = GrassmannShape(k, 2 * k)
        for height in (1, 2, 3, 4):
            beta = random_plane_partition(shape, height, rng)
            yield beta, None
            yield beta, rng.randrange(10**6)


def test_generic_arc_matches_the_checked_assembly():
    # generic_arc builds its arc from parts it has checked, without the
    # constructors' checks; the text is the one written by the arc built
    # through those constructors from listed paths, and hashes to the digest
    # the library gave before it skipped the checks
    texts = []
    for beta, seed in _generic_arc_inputs():
        precision = essential_profile(beta)[0][0] + 1
        arc = generic_arc(beta, precision, seed)
        reference = generic_arc_by_paths(beta, precision, seed)
        assert arc == reference and arc.precision == precision, (beta, seed)
        texts.append(format_arc_matrix(arc))
        assert texts[-1] == format_arc_matrix(reference)
    assert len(texts) == 2 * 50 + 24
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == "7e47615e90cee4e735c1e4428d37a746f6834b6b4ea0a3ef0fed290a2fd34d62"


def test_generic_arc_of_zero_stratum():
    beta = PlanePartition([[0, 0], [0, 0]], G24)
    assert invariant_factor_profile(generic_arc(beta)) == beta
    for entries in itertools.combinations(range(1, 5), 2):
        assert plucker_ord(beta, entries) == 0


def test_seeds_must_be_non_negative_ints():
    # -2 would draw the units of 2, since random.Random(-s) is random.Random(s)
    beta = PlanePartition([[2, 1], [1, 0]], G24)
    for bad in (-2, True, 1.5, "x"):
        with pytest.raises(ValueError, match="seed must be a non-negative int"):
            generic_arc(beta, seed=bad)
        with pytest.raises(ValueError, match="seed must be a non-negative int"):
            essential_weighting(beta, 8, seed=bad)
    assert generic_arc(beta, seed=0) != generic_arc(beta, seed=None)


def test_generic_arc_needs_the_largest_contact_order():
    beta = PlanePartition([[9, 9], [9, 9]], G24)
    with pytest.raises(PrecisionExceeded) as info:
        generic_arc(beta, precision=2)
    assert (info.value.position, info.value.bound) == ((1, 1), 3)
    with pytest.raises(PrecisionExceeded) as info:
        generic_arc(beta, precision=17)
    assert info.value.bound == 18
    assert invariant_factor_profile(generic_arc(beta, precision=18)) == beta
    with pytest.raises(ValueError):
        generic_arc(PlanePartition([[INF, 9], [9, 9]], G24), precision=2)


def test_wedge_edge_interpolates_between_strata():
    # Adding the down-left edge at (2, 2) with weight s*t^1 to the network
    # weighted for (2 2; 2 2) produces arcs of that stratum when s = 0 and
    # of the one-box-smaller stratum (2 2; 2 1) as soon as s is a unit.
    prec = 16
    beta = PlanePartition([[2, 2], [2, 1]], G24)
    bigger = beta.add_box(2, 2)
    wedge_exp = weight_exponents(beta)[1][1]
    assert wedge_exp == 1
    exps = weight_exponents(bigger)
    wmat = [[TruncatedSeries.t_power(exps[i][j], prec) for j in range(2)] for i in range(2)]
    for s, expected in ((0, bigger), (1, beta), (5, beta)):
        wedge = {(2, 2): TruncatedSeries.t_power(wedge_exp, prec, coeff=s)}
        arc = big_cell_arc(weight_matrix_by_paths(wmat, wedge))
        assert invariant_factor_profile(arc) == expected
