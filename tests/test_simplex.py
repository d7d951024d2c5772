"""Exact simplex solver: known programs, degeneracy, random cross-checks.

The one-phase solver takes integer rows coefficients . x <= rhs with
rhs >= 0.  The general programs (infeasible, ">=" and "=" rows, Fraction
data, negative right-hand sides) run against the two-phase oracle.
"""

import random
from fractions import Fraction

import pytest

from schubert_arcs import LPSolution, RationalLP, solve_max

from oracles import TwoPhaseLP, as_leq, brute_lp_max, satisfies, two_phase_max


def lp(n, objective, rows):
    out = RationalLP(n_vars=n, objective=list(objective))
    for coeffs, rhs in rows:
        out.add(coeffs, rhs)
    return out


def general(n, objective, rows):
    out = TwoPhaseLP(n_vars=n, objective=list(objective))
    for coeffs, rel, rhs in rows:
        out.add(coeffs, rel, rhs)
    return out


def test_two_variable_optimum():
    p = lp(2, [1, 1], [([1, 2], 4), ([3, 1], 6)])
    sol = solve_max(p)
    assert sol.status == "optimal"
    assert sol.value == Fraction(14, 5)
    assert sol.vertex == (Fraction(8, 5), Fraction(6, 5))


def test_infeasible():
    p = general(2, [1, 0], [([1, 1], "<=", 1), ([1, 1], ">=", 3)])
    sol = two_phase_max(p)
    assert sol.status == "infeasible"
    assert sol.value is None and sol.vertex is None


def test_unbounded():
    p = lp(2, [1, 0], [([0, 1], 1)])
    assert solve_max(p).status == "unbounded"


def test_no_constraints():
    assert solve_max(lp(2, [1, 0], [])).status == "unbounded"
    sol = solve_max(lp(2, [0, 0], []))
    assert sol.status == "optimal" and sol.value == 0


def test_beale_cycling_example_terminates():
    # The classical cycling program for the naive pivot rule, scaled to
    # integers by 100; Bland's rule must terminate and reach 100 * 1/20.
    p = lp(
        4,
        [75, -15000, 2, -600],
        [
            ([25, -6000, -4, 900], 0),
            ([50, -9000, -2, 300], 0),
            ([0, 0, 1, 0], 1),
        ],
    )
    sol = solve_max(p)
    assert sol.status == "optimal"
    assert sol.value == 5
    assert sol.vertex == (Fraction(1, 25), 0, 1, 0)
    assert sol.value == brute_lp_max(p)


def test_beale_cycling_example_with_fractions():
    p = general(
        4,
        [Fraction(3, 4), -150, Fraction(1, 50), -6],
        [
            ([Fraction(1, 4), -60, Fraction(-1, 25), 9], "<=", 0),
            ([Fraction(1, 2), -90, Fraction(-1, 50), 3], "<=", 0),
            ([0, 0, 1, 0], "<=", 1),
        ],
    )
    sol = two_phase_max(p)
    assert sol.status == "optimal"
    assert sol.value == Fraction(1, 20)
    assert sol.value == brute_lp_max(as_leq(p))


def test_equality_constraints():
    p = general(2, [1, 1], [([1, 1], "=", 3), ([1, -1], "=", 1)])
    sol = two_phase_max(p)
    assert sol.status == "optimal"
    assert sol.vertex == (2, 1)
    assert sol.value == 3


def test_fractional_data():
    p = general(1, [1], [([Fraction(2, 3)], "<=", 1)])
    sol = two_phase_max(p)
    assert sol.value == Fraction(3, 2)


def test_geq_with_negative_rhs():
    p = general(2, [1, 1], [([-1, -1], ">=", -2)])
    sol = two_phase_max(p)
    assert sol.status == "optimal"
    assert sol.value == 2
    p = general(1, [1], [([1], ">=", -5), ([1], "<=", 2)])
    assert two_phase_max(p).value == 2


def test_redundant_and_duplicate_rows():
    rows = [([1, 0], 1), ([1, 0], 1), ([1, 0], 5), ([0, 1], 1)]
    sol = solve_max(lp(2, [1, 1], rows))
    assert sol.value == 2
    assert sol.vertex == (1, 1)
    general_rows = [(coeffs, "<=", rhs) for coeffs, rhs in rows]
    assert two_phase_max(general(2, [1, 1], general_rows)) == sol


def test_determinism():
    rows = [([1, 2, 3], "<=", 6), ([2, 1, 1], "<=", 4), ([1, 1, 1], "=", 2)]
    first = two_phase_max(general(3, [1, 1, 0], rows))
    second = two_phase_max(general(3, [1, 1, 0], rows))
    assert first == second
    assert isinstance(first, LPSolution)
    rows = [([1, 2, 3], 6), ([2, 1, 1], 4), ([1, 1, 1], 2)]
    first = solve_max(lp(3, [1, 1, 0], rows))
    assert first == solve_max(lp(3, [1, 1, 0], rows))
    assert isinstance(first, LPSolution)


def test_add_validates():
    p = RationalLP(n_vars=2, objective=[1, 1])
    with pytest.raises(ValueError):
        p.add([1], 1)
    with pytest.raises(ValueError):
        p.add([1, 1], -1)
    with pytest.raises(ValueError):
        p.add([Fraction(1, 2), 1], 1)
    with pytest.raises(ValueError):
        p.add([1, 1], Fraction(1))
    with pytest.raises(ValueError):
        p.add([True, 1], 1)
    with pytest.raises(ValueError):
        p.add([1, 1], True)
    assert p.constraints == []
    with pytest.raises(ValueError):
        solve_max(RationalLP(n_vars=2, objective=[1]))
    with pytest.raises(ValueError):
        solve_max(RationalLP(n_vars=1, objective=[Fraction(1, 2)]))
    q = TwoPhaseLP(n_vars=2, objective=[1, 1])
    with pytest.raises(ValueError):
        q.add([1, 1], "<", 1)
    with pytest.raises(ValueError):
        q.add([1], "<=", 1)
    with pytest.raises(ValueError):
        two_phase_max(TwoPhaseLP(n_vars=2, objective=[1]))


def test_random_programs_match_enumeration():
    rng = random.Random(31)
    for trial in range(40):
        n = rng.randint(2, 4)
        p = TwoPhaseLP(n_vars=n, objective=[rng.randint(-3, 3) for _ in range(n)])
        for _ in range(rng.randint(2, 6)):
            coeffs = [rng.randint(-3, 3) for _ in range(n)]
            rel = rng.choice(["<=", "<=", "<=", ">=", "="])
            rhs = rng.randint(0, 6) if rel == "<=" else 0
            p.add(coeffs, rel, rhs)
        p.add([1] * n, "<=", rng.randint(1, 5))
        sol = two_phase_max(p)
        assert sol.status == "optimal"
        assert satisfies(as_leq(p).constraints, sol.vertex)
        got = sum(Fraction(c) * x for c, x in zip(p.objective, sol.vertex))
        assert got == sol.value
        assert sol.value == brute_lp_max(as_leq(p))


def test_random_leq_programs_match_enumeration():
    rng = random.Random(37)
    for trial in range(60):
        n = rng.randint(2, 4)
        p = RationalLP(n_vars=n, objective=[rng.randint(-3, 3) for _ in range(n)])
        for _ in range(rng.randint(2, 6)):
            p.add([rng.randint(-3, 3) for _ in range(n)], rng.choice([0, 0, rng.randint(1, 6)]))
        p.add([1] * n, rng.randint(1, 5))
        sol = solve_max(p)
        assert sol.status == "optimal"
        assert satisfies(p.constraints, sol.vertex)
        got = sum(c * x for c, x in zip(p.objective, sol.vertex))
        assert got == sol.value
        assert sol.value == brute_lp_max(p)
