"""Containment verdicts, discrepancy data, box chains, Nash valuations."""

import collections
import itertools
import math
import random

import pytest

from schubert_arcs import (
    INF,
    ContainmentVerdict,
    GrassmannShape,
    Infinity,
    PlanePartition,
    all_plane_partitions,
    codim_chain,
    essential_profile,
    compare,
    discrepancy_data,
    home_center,
    nash_valuations,
    singular_components,
    sufficient_by_weight_exponents,
)
from schubert_arcs.partitions import Partition, all_partitions, format_multi_index

from oracles import (
    compare_refutation_first,
    g24_orders,
    grown_plane_partition,
    necessary_containment,
    plucker_leq,
    random_plane_partition,
    shapes_up_to,
    sufficient_by_plateau,
)

G24 = GrassmannShape(2, 4)
G25 = GrassmannShape(2, 5)
G36 = GrassmannShape(3, 6)


def pp(text, shape):
    rows = [[INF if e == "inf" else int(e) for e in row.split()] for row in text.split(";")]
    return PlanePartition(rows, shape)


def test_equal_arguments():
    beta = pp("2 1; 1 0", G24)
    assert compare(beta, beta) == ContainmentVerdict("contains", "equal plane partitions")
    beta = pp("1 1 0; 0 0 0", G25)
    assert compare(beta, beta).relation == "contains"


def test_mismatched_shapes_rejected():
    with pytest.raises(ValueError):
        compare(pp("1 1; 1 0", G24), pp("1 1 0; 1 0 0", G25))


def test_g24_exact_decision():
    smaller = pp("1 1; 1 0", G24)
    larger = pp("1 1; 1 1", G24)
    assert compare(smaller, larger) == ContainmentVerdict(
        "contains", "all six Pluecker orders compare, which decides G(2, 4)"
    )
    assert compare(larger, smaller) == ContainmentVerdict(
        "not-contains", "order of [1,2] drops: 2 > 1"
    )


def test_g24_decision_matches_closed_forms_exhaustively():
    # Every G(2, 4) plane partition with entries up to 3, plus inf pillars
    # on a north-west region: the Pluecker orders alone decide.
    values = (0, 1, 2, 3, INF)
    betas = []
    for b11, b12, b21, b22 in itertools.product(values, repeat=4):
        try:
            betas.append(PlanePartition([[b11, b12], [b21, b22]], G24))
        except ValueError:
            pass
    assert len(betas) == 105
    orders = {beta: g24_orders(beta) for beta in betas}
    for beta, beta2 in itertools.product(betas, repeat=2):
        o, o2 = orders[beta], orders[beta2]
        drops = [e for e in sorted(o) if not o[e] <= o2[e]]
        if beta == beta2:
            expected = ContainmentVerdict("contains", "equal plane partitions")
        elif drops:
            e = drops[0]
            expected = ContainmentVerdict(
                "not-contains", f"order of {format_multi_index(e)} drops: {o[e]} > {o2[e]}"
            )
        else:
            expected = ContainmentVerdict(
                "contains", "all six Pluecker orders compare, which decides G(2, 4)"
            )
        assert compare(beta, beta2) == expected, (beta, beta2)


def test_compare_dispatches_to_g24():
    verdict = compare(pp("1 1; 1 1", G24), pp("1 1; 1 0", G24))
    assert verdict == ContainmentVerdict("not-contains", "order of [1,2] drops: 2 > 1")


def test_plucker_drop_witness():
    one = pp("1 0 0; 0 0 0", G25)
    zero = PlanePartition.zero(G25)
    verdict = compare(one, zero)
    assert verdict == ContainmentVerdict("not-contains", "order of [1,2] drops: 1 > 0")


def test_volume_witness_on_g36():
    # Both plane partitions have volume 12 and comparable Pluecker orders,
    # yet neither closure contains the other: codimension cannot stall.
    beta = pp("3 2 1; 2 1 1; 1 1 0", G36)
    beta2 = pp("2 2 1; 2 2 1; 1 1 0", G36)
    assert plucker_leq(beta, beta2)
    assert compare(beta, beta2) == ContainmentVerdict(
        "not-contains", "volume must strictly increase: 12 vs 12"
    )


def diagonal_move(beta, i, j):
    """beta with one box moved from (i, j) to (i+1, j+1), or None when the
    result is no plane partition."""
    rows = [list(row) for row in beta.rows]
    rows[i - 1][j - 1] -= 1
    rows[i][j] += 1
    try:
        return PlanePartition(rows, beta.shape)
    except ValueError:
        return None


def test_volume_witnesses_on_larger_shapes():
    # Equal volumes with comparable Pluecker orders are rare: on G(3, 6) of
    # height 3, 2 of 58,244 ordered equal-volume pairs.  Among all one-box
    # moves on G(3, 6) of height 4 only moves down the diagonal end there,
    # so the search moves boxes that way in staircases (entry h - i - j + 2,
    # clipped at 0) grown by a few random boxes, on G(3, 7) to G(4, 8); the
    # seed finds 8 such pairs, on every shape.
    rng = random.Random(31)
    shapes = [GrassmannShape(3, 7), GrassmannShape(4, 7), GrassmannShape(4, 8)]
    found = collections.Counter()
    for trial in range(600):
        shape = shapes[trial % len(shapes)]
        height = rng.randint(2, 4)
        stair = PlanePartition(
            [[max(0, height - i - j) for j in range(shape.cols)] for i in range(shape.k)], shape
        )
        beta = grown_plane_partition(stair, rng.randint(0, 4), rng)
        for i, j in itertools.product(range(1, shape.k), range(1, shape.cols)):
            beta2 = diagonal_move(beta, i, j)
            if beta2 is None:
                continue
            verdict = compare(beta, beta2)
            assert verdict == compare_refutation_first(beta, beta2), (beta, beta2)
            if verdict.witness.startswith("volume"):
                assert plucker_leq(beta, beta2)
                vol = beta.volume
                assert verdict == ContainmentVerdict(
                    "not-contains", f"volume must strictly increase: {vol} vs {vol}"
                )
                found[shape] += 1
    assert len(found) == 3 and sum(found.values()) >= 8, found


def test_weight_exponent_witness():
    zero = PlanePartition.zero(G25)
    beta = pp("1 1 0; 1 1 0", G25)
    assert sufficient_by_weight_exponents(zero, beta)
    assert compare(zero, beta) == ContainmentVerdict(
        "contains", "weight exponents compare entrywise"
    )


def test_plateau_chain_witness():
    beta = pp("1 0 0; 0 0 0", G25)
    beta2 = pp("1 1 0; 0 0 0", G25)
    assert not sufficient_by_weight_exponents(beta, beta2)
    assert sufficient_by_plateau(beta, beta2)
    assert compare(beta, beta2) == ContainmentVerdict(
        "contains", "chain of 1 plateau box additions"
    )


def test_unknown_verdict():
    beta = pp("2 0 0; 0 0 0", G25)
    beta2 = pp("1 1 0; 1 1 0", G25)
    assert necessary_containment(beta, beta2)
    assert compare(beta, beta2) == ContainmentVerdict(
        "unknown", "necessary conditions hold but no sufficient criterion applies"
    )


def test_plateau_never_fires_alongside_refutation():
    rng = random.Random(41)
    shapes = [G25, G36, GrassmannShape(3, 5)]
    fired = 0
    for trial in range(120):
        shape = shapes[trial % len(shapes)]
        beta = random_plane_partition(shape, 3, rng)
        beta2 = random_plane_partition(shape, 3, rng)
        if beta == beta2:
            continue
        if sufficient_by_plateau(beta, beta2):
            fired += 1
            assert plucker_leq(beta, beta2)
            assert beta.volume < beta2.volume
            assert necessary_containment(beta, beta2)
        if sufficient_by_weight_exponents(beta, beta2) and beta.volume < beta2.volume:
            assert plucker_leq(beta, beta2)
        if not necessary_containment(beta, beta2):
            assert compare(beta, beta2).relation == "not-contains"


def test_compare_matches_refutation_first_exhaustively():
    # every ordered pair of three small sweeps: trying the certificates
    # before the Pluecker orders changes no verdict and no witness
    pairs = 0
    for k, n, h in [(2, 5, 2), (3, 5, 2), (3, 6, 1)]:
        betas = list(all_plane_partitions(GrassmannShape(k, n), h))
        for beta, beta2 in itertools.product(betas, repeat=2):
            assert compare(beta, beta2) == compare_refutation_first(beta, beta2), (beta, beta2)
            pairs += 1
    assert pairs == 50 * 50 + 50 * 50 + 20 * 20


def with_inf_corner(beta, lam):
    """beta with inf on the cells of the partition lam."""
    shape = beta.shape
    rows = [
        [INF if lam.has_cell(i, j) else beta.at(i, j) for j in range(1, shape.cols + 1)]
        for i in range(1, shape.k + 1)
    ]
    return PlanePartition(rows, shape)


def test_compare_matches_refutation_first_with_inf_corners():
    # seeded random and grown pairs on G(3, 6) to G(4, 8), every other
    # group of four with an inf north-west corner; 576 ordered pairs
    rng = random.Random(15)
    shapes = [G36, GrassmannShape(3, 7), GrassmannShape(4, 7), GrassmannShape(4, 8)]
    kinds = collections.Counter()
    for trial in range(96):
        shape = shapes[trial % len(shapes)]
        corners = list(all_partitions(shape))
        lam = rng.choice(corners) if trial // 4 % 2 else Partition((), shape)
        beta = with_inf_corner(random_plane_partition(shape, 2, rng), lam)
        grown = grown_plane_partition(beta, rng.randint(1, 4), rng)
        wider = with_inf_corner(grown, rng.choice([lam, rng.choice(corners)]))
        other = with_inf_corner(random_plane_partition(shape, 2, rng), rng.choice(corners))
        for beta2 in (grown, wider, other):
            for a, b in ((beta, beta2), (beta2, beta)):
                verdict = compare(a, b)
                assert verdict == compare_refutation_first(a, b), (a, b)
                kinds[verdict.witness.split()[0], isinstance(a.volume, Infinity)] += 1
    # each kind of witness, from finite and from infinite first arguments
    assert {kind for kind, _ in kinds} == {"equal", "order", "weight", "chain", "necessary"}
    assert kinds["weight", True] and kinds["order", True] and kinds["necessary", True]


def test_certified_pairs_stream_no_plucker_order(monkeypatch):
    def no_orders(beta):
        raise AssertionError("a certified pair must not stream Pluecker orders")

    # nash imports the stream from networks when it needs one
    monkeypatch.setattr("schubert_arcs.networks._plucker_orders", no_orders)
    assert compare(
        pp("1 0 0; 0 0 0; 0 0 0", G36), pp("2 1 0; 1 0 0; 0 0 0", G36)
    ) == ContainmentVerdict("contains", "weight exponents compare entrywise")
    assert compare(
        pp("1 1 0; 1 0 0; 0 0 0", G36), pp("1 1 1; 1 1 0; 1 0 0", G36)
    ) == ContainmentVerdict("contains", "chain of 3 plateau box additions")


def test_plateau_requires_strict_growth():
    beta = pp("1 1; 1 0", G24)
    assert not sufficient_by_plateau(beta, beta)


def test_codim_is_volume():
    assert pp("3 2; 1 1", G24).volume == 7
    assert PlanePartition.zero(G36).volume == 0
    assert pp("inf 1; 1 0", G24).volume == INF


def test_discrepancy_data_frozen():
    assert discrepancy_data(pp("1 1; 1 1", G24)) == (4, 1, 3)
    assert discrepancy_data(pp("2 2; 2 2", G24)) == (8, 2, 6)
    assert discrepancy_data(PlanePartition.zero(G24)) == (0, 0, 0)
    with pytest.raises(ValueError):
        discrepancy_data(pp("inf 1; 1 0", G24))


def test_multiplicity_is_the_gcd_of_the_diagonal_sums():
    """The multiplicity, the gcd of all Pluecker orders, is the gcd of the
    entries D(a, b) of the essential profile.

    The gcd of the orders divides every D(a, b): D(a, b) is the order of
    the rectangle Schubert variety with the one corner (a, b), whose ideal
    is generated by Pluecker coordinates, and the order of an ideal at an
    arc is the least order of its generators, so D(a, b) is one of the
    Pluecker orders.  The gcd of the D(a, b) divides every Pluecker order:
    each is the exponent total of one path family, the weight exponents
    are differences of entries of beta, and beta(a, b) = D(a, b) -
    D(a+1, b+1), so every Pluecker order is an integer combination of
    diagonal sums.
    """
    checked = 0
    for (k, n), h in [((2, 4), 4), ((2, 5), 3), ((2, 6), 3), ((3, 6), 2), ((3, 7), 2), ((4, 8), 1)]:
        for beta in all_plane_partitions(GrassmannShape(k, n), h):
            gcd = math.gcd(*(d for row in essential_profile(beta) for d in row))
            assert discrepancy_data(beta)[1] == gcd, beta
            checked += 1
    assert checked == 1505


def test_codim_chain_frozen():
    beta = pp("3 2; 1 1", G24)
    chain = codim_chain(beta)
    expected = [
        "0 0; 0 0",
        "1 0; 0 0",
        "1 1; 0 0",
        "1 1; 1 0",
        "1 1; 1 1",
        "2 1; 1 1",
        "2 2; 1 1",
        "3 2; 1 1",
        "3 3; 1 1",
        "3 3; 2 1",
        "3 3; 3 1",
        "3 3; 3 2",
        "3 3; 3 3",
    ]
    assert chain == [pp(s, G24) for s in expected]
    assert chain[beta.volume] == beta


def test_codim_chain_properties():
    rng = random.Random(42)
    for trial in range(25):
        shape = rng.choice(shapes_up_to(6))
        beta = random_plane_partition(shape, 3, rng)
        chain = codim_chain(beta)
        h = beta.height
        assert len(chain) == h * shape.k * shape.cols + 1
        assert chain[0] == PlanePartition.zero(shape)
        assert chain[beta.volume] == beta
        if h:
            assert chain[-1] == PlanePartition([[h] * shape.cols] * shape.k, shape)
        for prev, nxt in zip(chain, chain[1:]):
            assert nxt.volume == prev.volume + 1
            assert sufficient_by_plateau(prev, nxt)


def test_codim_chain_rejects_infinite():
    with pytest.raises(ValueError):
        codim_chain(pp("inf 1; 1 0", G24))


def test_nash_valuations_frozen():
    lam = Partition((1,), G24)
    assert nash_valuations(lam) == [pp("inf 1; 1 1", G24)]
    assert nash_valuations(Partition((2, 1), G24)) == []
    with pytest.raises(ValueError):
        nash_valuations(Partition((), G24))


def test_nash_valuations_structure():
    for shape in shapes_up_to(6):
        for lam in all_partitions(shape):
            components = singular_components(lam)
            vals = nash_valuations(lam)
            assert len(vals) == len(components)
            for mu, beta in zip(components, vals):
                for i in range(1, shape.k + 1):
                    for j in range(1, shape.cols + 1):
                        e = beta.at(i, j)
                        if lam.has_cell(i, j):
                            assert e == INF
                        elif mu.has_cell(i, j):
                            assert e == 1
                        else:
                            assert e == 0


def test_nash_valuations_are_pairwise_incomparable():
    # injectivity side of the Nash map: no Nash stratum of lam lies in the
    # closure of another; 68 ordered pairs, each refuted outright
    pairs = 0
    for k, n in [(3, 6), (3, 7), (4, 8), (3, 8)]:
        for lam in all_partitions(GrassmannShape(k, n)):
            vals = nash_valuations(lam)
            for nu, nu2 in itertools.permutations(vals, 2):
                assert compare(nu, nu2).relation == "not-contains", (nu, nu2)
                pairs += 1
    assert pairs == 68


def test_nash_strata_cover_the_singular_arcs_of_g36():
    # covering side: a stratum of arcs in X_lam (inf exactly on lam, finite
    # entries at most 2 elsewhere) whose center contains a singular
    # component mu is never refuted to lie in the closure of that
    # component's Nash stratum; most are proved to.  The verdicts equal
    # those of the refutation-first order, which streams the Pluecker
    # orders of certified pairs too, so those are never refuted either
    strata, contained = 0, 0
    for lam in all_partitions(G36):
        components = singular_components(lam)
        nash = dict(zip(components, nash_valuations(lam)))
        betas = {
            PlanePartition(
                [
                    [INF if lam.has_cell(i, j) else fin.at(i, j) for j in range(1, G36.cols + 1)]
                    for i in range(1, G36.k + 1)
                ],
                G36,
            )
            for fin in all_plane_partitions(G36, 2)
        }
        for beta in betas:
            center = home_center(beta)[1]
            mus = [mu for mu in components if center.contains(mu)]
            if not mus:
                continue
            verdicts = [compare(nash[mu], beta) for mu in mus]
            assert verdicts == [compare_refutation_first(nash[mu], beta) for mu in mus], beta
            relations = [verdict.relation for verdict in verdicts]
            strata += 1
            assert "not-contains" not in relations, beta
            contained += "contains" in relations
    assert strata == 349
    assert contained >= 300
