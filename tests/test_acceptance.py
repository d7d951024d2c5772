"""Acceptance suite: one test per headline guarantee of the package.

Every test finishes with a single summary line so a verbose run reads as a
checklist.  Numeric checks are exact; the only tolerances are wall-clock
budgets on the three long-running sweeps.
"""

import itertools
import random
import time
from fractions import Fraction

from schubert_arcs import (
    INF,
    GrassmannShape,
    Partition,
    PlanePartition,
    arnold_multiplicity,
    codim_chain,
    compare,
    generic_arc,
    integer_witness,
    invariant_factor_profile,
    lct,
    nash_valuations,
    singular_components,
)
from schubert_arcs.networks import (
    essential_weighting,
    gamma0,
    plucker_ord,
    tropical_minor_order,
    weight_matrix,
)
from schubert_arcs.partitions import all_partitions
from schubert_arcs.plane_partitions import ord_schubert
from schubert_arcs.series import parse_arc_matrix, series_det

from oracles import (
    brute_force_arnold,
    distinct_floor_count,
    grown_plane_partition,
    lct_rectangular,
    lindstrom_minor,
    plucker_leq,
    random_plane_partition,
    rim_size,
    shapes_up_to,
    sufficient_by_plateau,
)

G24 = GrassmannShape(2, 4)


def test_01_threshold_of_the_3x3_rectangle_in_g716():
    t0 = time.monotonic()
    lam = Partition((3, 3, 3), GrassmannShape(7, 16))
    by_program = lct(lam)
    by_formula = lct_rectangular(3, 3, GrassmannShape(7, 16))
    elapsed = time.monotonic() - t0
    assert by_program == by_formula == 8
    assert elapsed < 5.0
    print(f"criterion 01: pass (program {by_program}, formula {by_formula}, {elapsed:.2f} s)")


def test_02_rectangular_closed_form_matches_the_program():
    t0 = time.monotonic()
    checked = 0
    for shape in shapes_up_to(10):
        for a in range(1, shape.k + 1):
            for b in range(1, shape.cols + 1):
                lam = Partition((b,) * a, shape)
                assert lct(lam) == lct_rectangular(a, b, shape)
                checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"criterion 02: pass ({checked} rectangles, {elapsed:.2f} s)")


def test_03_brute_force_search_matches_the_program():
    t0 = time.monotonic()
    checked = 0
    for shape in (G24, GrassmannShape(2, 5), GrassmannShape(3, 6)):
        lams = list(all_partitions(shape))
        assert brute_force_arnold(lams, 6) == [arnold_multiplicity(lam) for lam in lams]
        checked += len(lams)
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    print(f"criterion 03: pass ({checked} varieties, {elapsed:.2f} s)")


def test_04_optimal_witness_with_several_floors():
    lam = Partition((5, 4, 4, 4, 1), GrassmannShape(5, 10))
    witness = integer_witness(lam)
    n_floors = distinct_floor_count(witness)
    assert n_floors >= 2
    assert Fraction(ord_schubert(witness, lam), witness.volume) == arnold_multiplicity(lam)
    print(f"criterion 04: pass (witness has {n_floors} distinct floors)")


def test_05_threshold_equals_codimension_iff_rim_bound():
    checked = 0
    for shape in shapes_up_to(8):
        for lam in all_partitions(shape):
            if len(lam.parts) > shape.k - 1 or lam.parts[0] > shape.cols - 1:
                continue
            assert (lct(lam) == lam.size) == (lam.size <= rim_size(lam))
            checked += 1
    print(f"criterion 05: pass ({checked} diagrams)")


def test_06_profiles_of_the_three_reference_arcs():
    expected = {
        "t^2+t^3, t^2, 0, 1; t^2, t, 1, 0": PlanePartition([[2, 2], [2, 1]], G24),
        "t^2, 0, 0, 1; 0, t, 1, 0": PlanePartition([[2, 2], [2, 1]], G24),
        "t^3, t^2, 0, 1; t^2, 0, 1, 0": PlanePartition([[2, 2], [2, 2]], G24),
    }
    for text, beta in expected.items():
        assert invariant_factor_profile(parse_arc_matrix(text, 8)) == beta
    print("criterion 06: pass (3 arcs)")


def test_07_generic_arc_profile_round_trip():
    rng = random.Random(7)
    shapes = shapes_up_to(7)
    for trial in range(500):
        shape = shapes[trial % len(shapes)]
        beta = random_plane_partition(shape, 4, rng)
        assert invariant_factor_profile(generic_arc(beta, seed=trial)) == beta
    print("criterion 07: pass (500 round trips)")


def test_08_path_family_expansion_equals_every_minor():
    rng = random.Random(8)
    checked = 0
    for shape in shapes_up_to(7):
        net = gamma0(shape)
        for seed in range(200):
            beta = random_plane_partition(shape, 3, rng)
            w = essential_weighting(beta, 16, seed=seed)
            matrix = weight_matrix(w)
            for size in range(1, min(shape.k, shape.cols) + 1):
                for rows in itertools.combinations(range(1, shape.k + 1), size):
                    for cols in itertools.combinations(range(1, shape.cols + 1), size):
                        lhs = lindstrom_minor(net, w, rows, cols)
                        rhs = series_det(matrix, [r - 1 for r in rows], [c - 1 for c in cols])
                        assert lhs == rhs
                        checked += 1
    print(f"criterion 08: pass ({checked} minors)")


def test_09_tropical_order_equals_symbolic_order():
    rng = random.Random(9)
    for shape in shapes_up_to(7):
        net = gamma0(shape)
        for trial in range(200):
            beta = random_plane_partition(shape, 4, rng)
            w = essential_weighting(beta, 48, seed=trial)
            size = rng.randint(1, min(shape.k, shape.cols))
            rows = tuple(sorted(rng.sample(range(1, shape.k + 1), size)))
            cols = tuple(sorted(rng.sample(range(1, shape.cols + 1), size)))
            symbolic = lindstrom_minor(net, w, rows, cols).order()
            assert symbolic == tropical_minor_order(beta, rows, cols)
    print("criterion 09: pass (200 trials per shape)")


def test_10_closed_plucker_forms_on_g24():
    rng = random.Random(10)
    nw_regions = [(), (1,), (1, 1), (2,), (2, 1), (2, 2)]
    for trial in range(100):
        beta = random_plane_partition(G24, 5, rng)
        mu = Partition(rng.choice(nw_regions), G24)
        rows = [
            [INF if mu.has_cell(i, j) else beta.at(i, j) for j in (1, 2)]
            for i in (1, 2)
        ]
        beta = PlanePartition(rows, G24)
        b11, b12 = beta.at(1, 1), beta.at(1, 2)
        b21, b22 = beta.at(2, 1), beta.at(2, 2)
        assert plucker_ord(beta, (1, 2)) == b11 + b22
        assert plucker_ord(beta, (1, 3)) == min(b11, b12 + b21 - b22)
        assert plucker_ord(beta, (1, 4)) == b21
        assert plucker_ord(beta, (2, 3)) == b12
        assert plucker_ord(beta, (2, 4)) == b22
        assert plucker_ord(beta, (3, 4)) == 0
    print("criterion 10: pass (100 plane partitions, 6 coordinates each)")


def test_11_plateau_criterion_implies_the_necessary_conditions():
    rng = random.Random(11)
    fired = 0
    for shape in shapes_up_to(6):
        for trial in range(300):
            beta = random_plane_partition(shape, 3, rng)
            if trial % 2:
                beta2 = grown_plane_partition(beta, rng.randint(1, 4), rng)
            else:
                beta2 = random_plane_partition(shape, 3, rng)
            if beta == beta2:
                continue
            if sufficient_by_plateau(beta, beta2):
                fired += 1
                assert plucker_leq(beta, beta2)
                assert beta.volume < beta2.volume
    assert fired > 0
    g36 = GrassmannShape(3, 6)
    beta = PlanePartition([[3, 2, 1], [2, 1, 1], [1, 1, 0]], g36)
    beta2 = PlanePartition([[2, 2, 1], [2, 2, 1], [1, 1, 0]], g36)
    assert plucker_leq(beta, beta2)
    verdict = compare(beta, beta2)
    assert verdict.relation == "not-contains"
    assert verdict.witness == "volume must strictly increase: 12 vs 12"
    print(f"criterion 11: pass (criterion fired {fired} times, volume pair refuted)")


def test_12_codimension_chains():
    rng = random.Random(12)
    shapes = shapes_up_to(6)
    for trial in range(100):
        shape = shapes[trial % len(shapes)]
        beta = random_plane_partition(shape, 3, rng)
        chain = codim_chain(beta)
        assert len(chain) == beta.height * shape.k * shape.cols + 1
        assert chain[beta.volume] == beta
        for prev, nxt in zip(chain, chain[1:]):
            assert sufficient_by_plateau(prev, nxt)
    print("criterion 12: pass (100 chains)")


def test_13_nash_valuation_counts():
    lam = Partition((1,), G24)
    assert nash_valuations(lam) == [PlanePartition([[INF, 1], [1, 1]], G24)]
    checked = 0
    for shape in shapes_up_to(7):
        for lam in all_partitions(shape):
            assert len(nash_valuations(lam)) == len(singular_components(lam))
            checked += 1
    print(f"criterion 13: pass ({checked} varieties)")
