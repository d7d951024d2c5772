"""Containment tests between closed contact strata, codimension and
discrepancy data, box-addition chains, and Nash valuations.

A stratum closure contains another only if every Pluecker coordinate has
smaller or equal vanishing order (the Pluecker order) and the codimension,
which is the number of boxes, strictly increases.  Sufficient criteria come
from two sources: entrywise comparison of weight exponents, and single-box
additions at plateau corners with positive fall, chained greedily.  On
G(2, 4) the necessary conditions alone decide; elsewhere the gap between
necessary and sufficient is genuine, so the combined verdict falls back to
"unknown" rather than guessing.

Off G(2, 4), compare tries the sufficient criteria before the necessary
conditions.  Each criterion implies both conditions, so the verdict and its
witness are those of the opposite order, and a certified pair costs a pass
over the entries instead of a stream of Pluecker orders over path families.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .partitions import GrassmannShape, Partition, format_multi_index, singular_components
from .plane_partitions import (
    INF,
    Infinity,
    PlanePartition,
    plateaux,
    weight_exponents,
)


class ContainmentVerdict(namedtuple("ContainmentVerdict", "relation witness")):
    """Outcome of a containment test, with a human-checkable witness.

    relation is "contains" (closure of the first stratum contains the
    second), "not-contains", or "unknown".  Definite verdicts always carry
    the reason in witness.
    """

    __slots__ = ()


def _same_shape(beta: PlanePartition, beta2: PlanePartition) -> GrassmannShape:
    if beta.shape != beta2.shape:
        raise ValueError("plane partitions live in different shapes")
    return beta.shape


def _plucker_drop(beta: PlanePartition, beta2: PlanePartition) -> str | None:
    """Witness for the first multi-index, in lexicographic order, whose
    Pluecker order drops from beta to beta2, or None."""
    from .networks import _plucker_orders

    for (entries, o), (_, o2) in zip(_plucker_orders(beta), _plucker_orders(beta2)):
        if not o <= o2:
            return f"order of {format_multi_index(entries)} drops: {o} > {o2}"
    return None


def _refutation(beta: PlanePartition, beta2: PlanePartition) -> str | None:
    """Witness that the closure of the first stratum cannot contain the
    second, or None: some Pluecker order drops, or the volumes fail the
    strict increase that a strict containment of irreducible closed strata
    forces.  That refutes two finite volumes that do not increase and an
    infinite first volume against a finite second one; two infinite
    volumes refute nothing.  Meant for distinct arguments."""
    drop = _plucker_drop(beta, beta2)
    if drop is not None:
        return drop
    vol, vol2 = beta.volume, beta2.volume
    if not (isinstance(vol, Infinity) and isinstance(vol2, Infinity)) and not vol < vol2:
        return f"volume must strictly increase: {vol} vs {vol2}"
    return None


def sufficient_by_weight_exponents(beta: PlanePartition, beta2: PlanePartition) -> bool:
    """Entrywise comparison of weight exponents; true guarantees the
    closure of the first stratum contains the second.

    A weighting realizing the second stratum specializes to one realizing
    the first by lowering orders, which is where the containment comes
    from.  False is inconclusive.
    """
    _same_shape(beta, beta2)
    exps, exps2 = weight_exponents(beta), weight_exponents(beta2)
    return all(
        e <= e2 for row, row2 in zip(exps, exps2) for e, e2 in zip(row, row2)
    )


def _plateau_chain(beta: PlanePartition, beta2: PlanePartition):
    """Greedy chain of single-box plateau additions from beta to beta2.

    Returns the list of intermediate plane partitions (beta exclusive,
    beta2 inclusive), or None when the greedy search gets stuck.  Boxes go
    in lowest floor first, lexicographically smallest position next, the
    same discipline as codim_chain; each step is re-checked against the
    plateau definition, so a returned chain is a proof.
    """
    k, c = beta.shape.k, beta.shape.cols
    for i in range(1, k + 1):
        for j in range(1, c + 1):
            e, e2 = beta.at(i, j), beta2.at(i, j)
            if not e <= e2:
                return None
            if e != e2 and isinstance(e2, Infinity):
                return None
    steps = []
    current = beta
    while current != beta2:
        candidates = []
        for (a, b), _, fall in plateaux(current):
            e = current.at(a, b)
            if isinstance(e, Infinity) or not fall > 0:
                continue
            if e < beta2.at(a, b):
                candidates.append((e + 1, (a, b)))
        if not candidates:
            return None
        _, (a, b) = min(candidates)
        current = current.add_box(a, b)
        steps.append(current)
    return steps


def compare(beta: PlanePartition, beta2: PlanePartition) -> ContainmentVerdict:
    """Best available verdict on whether the closure of the first stratum
    contains the second.

    Off G(2, 4) the sufficient criteria (weight exponents, then plateau
    chains) are tried first, since they are cheap and either one implies
    both necessary conditions: smaller weight exponents lower every path
    family total, hence every Pluecker order, and make beta <= beta2
    entrywise, so the volume strictly increases or both are infinite; a
    plateau chain is a chain of strict containments.  Only when neither
    applies are the Pluecker orders streamed, then the volumes compared
    (see _refutation), and what they leave open is "unknown".  On G(2, 4)
    the necessary conditions come first, because their passing is the
    containment witness there.
    """
    shape = _same_shape(beta, beta2)
    if beta == beta2:
        return ContainmentVerdict("contains", "equal plane partitions")
    g24 = (shape.k, shape.n) == (2, 4)
    if not g24:
        if sufficient_by_weight_exponents(beta, beta2):
            return ContainmentVerdict("contains", "weight exponents compare entrywise")
        chain = _plateau_chain(beta, beta2)
        if chain is not None:
            return ContainmentVerdict(
                "contains", f"chain of {len(chain)} plateau box additions"
            )
    refutation = _refutation(beta, beta2)
    if refutation is not None:
        return ContainmentVerdict("not-contains", refutation)
    if g24:
        return ContainmentVerdict(
            "contains", "all six Pluecker orders compare, which decides G(2, 4)"
        )
    return ContainmentVerdict(
        "unknown", "necessary conditions hold but no sufficient criterion applies"
    )


def discrepancy_data(beta: PlanePartition) -> tuple[int, int, int]:
    """(codimension, multiplicity, discrepancy) of the stratum's valuation.

    The multiplicity is computed as the gcd of the non-zero vanishing
    orders of the big-cell coordinates, zero for the empty plane partition;
    the discrepancy is codimension minus multiplicity.
    """
    if not beta.is_finite:
        raise ValueError("discrepancy data requires a finite plane partition")
    from .networks import _plucker_orders

    vol = beta.volume
    q = math.gcd(*(order for _, order in _plucker_orders(beta)))
    return vol, q, vol - q


def codim_chain(beta: PlanePartition) -> list[PlanePartition]:
    """Chain of one-box steps from the empty plane partition through beta
    to the constant plane partition of the same height.

    Boxes of beta are added lowest floor first, lexicographically smallest
    position next; afterwards the remaining pillars are completed to full
    height in lexicographic order.  Every step adds a box at a plateau
    corner with positive fall, which makes consecutive stratum closures
    strictly nested and proves that the codimension is the box count.
    """
    if not beta.is_finite:
        raise ValueError("an infinite plane partition has infinite codimension")
    k, c = beta.shape.k, beta.shape.cols
    h = beta.height
    current = PlanePartition.zero(beta.shape)
    chain = [current]
    for s in range(1, h + 1):
        for i in range(1, k + 1):
            for j in range(1, c + 1):
                if beta.at(i, j) >= s:
                    current = current.add_box(i, j)
                    chain.append(current)
    for i in range(1, k + 1):
        for j in range(1, c + 1):
            while current.at(i, j) < h:
                current = current.add_box(i, j)
                chain.append(current)
    return chain


def nash_valuations(lam: Partition) -> list[PlanePartition]:
    """The plane partitions of the Nash valuations of a Schubert variety,
    one per component of the singular locus.

    The valuation attached to the component with center mu has profile with
    infinite pillars on lam and a single extra floor on mu away from lam.
    Smooth varieties give the empty list.
    """
    if not lam:
        raise ValueError("the Grassmannian itself is smooth and has no Nash valuations")
    out = []
    for mu in singular_components(lam):
        rows = [
            [
                INF if lam.has_cell(i, j) else 1 if mu.has_cell(i, j) else 0
                for j in range(1, lam.shape.cols + 1)
            ]
            for i in range(1, lam.shape.k + 1)
        ]
        out.append(PlanePartition(rows, lam.shape))
    return out
