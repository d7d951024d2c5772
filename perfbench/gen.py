"""Seeded input generator shared by the four workloads.

``generate(workload, seed)`` returns the request specs of one round and the
property mix they were drawn with.  Specs are plain data (tuples, ints,
strings): the package is not imported here, so generation costs the same
whatever the package does.  The same workload and seed always give the same
specs.

Every workload fixes its mix by counts, not by chance: how many requests go
to each shape, which height and how many zero entries each plane partition
has, how many arcs leave the big cell, how many CLI requests are malformed.
Only the entries, positions and unit coefficients are random, so rounds of
different seeds cost about the same.
"""

from __future__ import annotations

import random
from collections import Counter

import oracle

INF = oracle.INF


# -- Random partitions and plane partitions ----------------------------------


def random_partition(rng, k, c):
    """Uniform over the non-empty partitions in the k x c box: a k-subset
    of range(k+c) read as a lattice path."""
    while True:
        chosen = sorted(rng.sample(range(k + c), k))
        parts = tuple(sorted((chosen[i] - i for i in range(k)), reverse=True))
        parts = tuple(p for p in parts if p)
        if parts:
            return parts


def plane_partition(rng, k, c, height, support):
    """Plane partition with floor one equal to ``support`` and exactly
    ``height`` floors, each upper floor a random sub-diagram of the one
    below that keeps the corner cell (1, 1)."""
    rows = [[0] * c for _ in range(k)]
    floor = list(support) + [0] * (k - len(support))
    for level in range(height):
        if level:
            new, last = [], c
            for i in range(k):
                low = 1 if i == 0 else 0
                p = min(rng.randint(low, max(low, floor[i])), last)
                new.append(p)
                last = p
            floor = new
        for i in range(k):
            for j in range(floor[i]):
                rows[i][j] += 1
    return tuple(tuple(r) for r in rows)


def random_plane_partition(rng, k, c, height):
    return plane_partition(rng, k, c, height, random_partition(rng, k, c))


def grow(rng, beta, boxes):
    """Add ``boxes`` boxes one at a time at random addable finite cells."""
    rows = [list(r) for r in beta]
    k, c = len(rows), len(rows[0])
    for _ in range(boxes):
        cells = [
            (i, j)
            for i in range(k)
            for j in range(c)
            if rows[i][j] != INF
            and (i == 0 or rows[i - 1][j] > rows[i][j])
            and (j == 0 or rows[i][j - 1] > rows[i][j])
        ]
        if not cells:
            break
        i, j = rng.choice(cells)
        rows[i][j] += 1
    return tuple(tuple(r) for r in rows)


def singular_partition(rng, k, c):
    """A random partition whose Schubert variety is singular."""
    while True:
        parts = random_partition(rng, k, c)
        if oracle.singular_components(parts, k, c):
            return parts


def share(count, total):
    return round(count / total, 4) if total else 0.0


def _shape_mix(specs):
    return {f"G({k},{n})": count for (k, n), count in sorted(Counter(s["shape"] for s in specs).items())}


def _seen_share(specs):
    seen, repeat = set(), 0
    for s in specs:
        repeat += s["shape"] in seen
        seen.add(s["shape"])
    return share(repeat, len(specs))


# -- arc-profiles -------------------------------------------------------------

# (k, requests, supports).  The support of a plane partition (its cells of
# positive height) fixes which entries of its essential profile are zero,
# and that decides how many minors a profile scans, so the supports are
# fixed and cycled per shape, and only heights, upper floors,
# unit coefficients and the moves out of the big cell are drawn.
PROFILE_PLAN = (
    (2, 60, ((1,), (2,), (1, 1), (2, 1), (2, 2))),
    (3, 112, ((1,), (2, 1), (3, 1), (2, 2), (3, 2, 1), (3, 3), (2, 2, 2), (3, 3, 2))),
    (4, 24, ((3, 3, 2), (4, 2, 1, 1), (2, 2, 2, 2), (4, 4), (3, 2, 2, 1))),
    (5, 14, ((3, 3, 2), (4, 2, 1, 1), (2, 2, 2, 2), (3, 2, 2, 1), (4, 3, 1), (3, 3, 1, 1), (2, 2, 2, 1, 1))),
    (6, 2, ((3, 3, 3), (4, 2, 2, 1))),
)
LEAVE_EVERY = 4  # every fourth arc of a shape is moved out of the big cell


def arc_profiles(rng):
    specs = []
    for k, count, supports in PROFILE_PLAN:
        c = k
        for r in range(count):
            height = 1 + r % 4
            beta = plane_partition(rng, k, c, height, supports[r % len(supports)])
            alpha11 = oracle.diagonal_sum(beta, 1, 1)
            specs.append(
                {
                    "kind": "profile",
                    "shape": (k, 2 * k),
                    "beta": beta,
                    "prec": alpha11 + 2,
                    "unit_seed": rng.randrange(1 << 30),
                    "leave": r % LEAVE_EVERY == LEAVE_EVERY - 1,
                    "pick": rng.randrange(1 << 30),
                    "borel_seed": rng.randrange(1 << 30),
                }
            )
    rng.shuffle(specs)
    zeros = sum(sum(1 for row in s["beta"] for e in row if e == 0) for s in specs)
    cells = sum(len(s["beta"]) * len(s["beta"][0]) for s in specs)
    mix = {
        "requests_per_shape": _shape_mix(specs),
        "heights": "1-4 in equal shares per shape",
        "supports": {f"G({k},{2 * k})": list(sup) for k, _, sup in PROFILE_PLAN},
        "zero_entry_share": share(zeros, cells),
        "leave_big_cell_share": share(sum(s["leave"] for s in specs), len(specs)),
        "inf_share": 0.0,
        "seen_shape_share": _seen_share(specs),
        "precision": "largest contact order + 2",
    }
    return specs, mix


# -- strata -------------------------------------------------------------------

# (k, independent pairs, grown pairs, valuation pairs, discrepancy, plucker)
# A comparison costs either almost nothing (a Pluecker order drops early)
# or a full scan of the coordinates, so comparison latencies split in two
# clusters whose sizes vary with the seed.  discrepancy_data always scans
# every coordinate and costs nearly the same for every plane partition of a
# shape: the G(4,8) ones hold the median and the G(5,10) ones the 95th
# percentile, so both stay put from seed to seed.  discrepancy_data on
# G(6,12) (several seconds, nearly all of it family enumeration) is left
# out to keep a round short; G(6,12) is reached through plucker_ord.
STRATA_PLAN = (
    (2, 12, 6, 2, 0, 0),
    (3, 10, 10, 4, 6, 6),
    (4, 40, 30, 10, 120, 10),
    (5, 0, 2, 2, 20, 10),
    (6, 0, 0, 0, 0, 12),
)


def strata(rng):
    specs = []
    for k, independent, grown, valuation, discrepancy, plucker in STRATA_PLAN:
        c, n = k, 2 * k
        shape = (k, n)
        for _ in range(independent):
            b1 = random_plane_partition(rng, k, c, rng.randint(1, 3))
            b2 = random_plane_partition(rng, k, c, rng.randint(1, 3))
            specs.append({"kind": "compare", "shape": shape, "pair": (b1, b2), "inf": False})
        for _ in range(grown):
            b1 = random_plane_partition(rng, k, c, rng.randint(1, 3))
            b2 = grow(rng, b1, rng.randint(1, 4))
            specs.append({"kind": "compare", "shape": shape, "pair": (b1, b2), "inf": False})
        for v in range(valuation):
            lam = singular_partition(rng, k, c)
            other = random_plane_partition(rng, k, c, rng.randint(1, 3))
            specs.append(
                {
                    "kind": "compare-valuation",
                    "shape": shape,
                    "lam": lam,
                    "index": rng.randrange(len(oracle.singular_components(lam, k, c))),
                    "other": other,
                    "valuation_first": v % 2 == 1,
                    "inf": True,
                }
            )
        for _ in range(discrepancy):
            beta = random_plane_partition(rng, k, c, rng.randint(1, 3))
            specs.append({"kind": "discrepancy", "shape": shape, "beta": beta, "inf": False})
        for p in range(plucker):
            beta = random_plane_partition(rng, k, c, rng.randint(1, 3))
            if p % 4 == 3:
                lam = singular_partition(rng, k, c)
                comps = oracle.singular_components(lam, k, c)
                beta = oracle.nash_valuation(lam, rng.choice(comps), k, c)
            entries = tuple(sorted(rng.sample(range(1, n + 1), k)))
            specs.append(
                {"kind": "plucker", "shape": shape, "beta": beta, "entries": entries, "inf": p % 4 == 3}
            )
    rng.shuffle(specs)
    kinds = Counter(s["kind"] for s in specs)
    mix = {
        "requests_per_shape": _shape_mix(specs),
        "requests_per_kind": dict(sorted(kinds.items())),
        "inf_share": share(sum(s["inf"] for s in specs), len(specs)),
        "g24_share": share(sum(s["shape"] == (2, 4) for s in specs), len(specs)),
        "seen_shape_share": _seen_share(specs),
        "heights": "1-3 uniform; grown pairs add 1-4 boxes",
        "leave_big_cell_share": 0.0,
    }
    return specs, mix


# -- lct-sweep ----------------------------------------------------------------

# (k, partitions per shape); each partition gives an lct and a witness
# request.  The partitions of a shape are drawn without repetition, so the
# small shapes are covered almost completely and their cost varies little
# between seeds; the 95th percentile falls in the G(6,12) requests, with the
# G(7,14) and G(8,16) requests above it.
LCT_PLAN = ((4, 50), (5, 50), (6, 25), (7, 1), (8, 1))
RECTANGLE_EVERY = 4


def lct_sweep(rng):
    specs = []
    for k, count in LCT_PLAN:
        c = k
        specs.append({"kind": "all-partitions", "shape": (k, 2 * k)})
        lams = rng.sample([p for p in oracle.partitions_in_box(k, c) if p], count)
        for r, lam in enumerate(lams):
            rect = None
            if r % RECTANGLE_EVERY == 0:
                a, b = rng.randint(1, k), rng.randint(1, c)
                lam, rect = (b,) * a, (a, b)
            specs.append({"kind": "lct", "shape": (k, 2 * k), "lam": lam, "rect": rect})
            specs.append({"kind": "witness", "shape": (k, 2 * k), "lam": lam, "rect": rect})
    mix = {
        "requests_per_shape": _shape_mix(specs),
        "rectangle_share": share(sum(s["rect"] is not None for s in specs if s["kind"] != "all-partitions"), len(specs)),
        "seen_shape_share": _seen_share(specs),
        "inf_share": 0.0,
        "leave_big_cell_share": 0.0,
    }
    return specs, mix


# -- cli-oneshot --------------------------------------------------------------

CLI_SHAPES = (2, 3, 4)
# Valid requests per subcommand, enough to reach every variant below once.
# Nearly all of a request's time is the interpreter's start, which on a
# shared host swings by half from one second to the next, so a round is kept
# to about forty requests: each is then timed in about eight rounds, and its
# fastest time is a quiet one.
CLI_VALID = {
    "lct": 3,
    "arnold": 2,
    "lct-table": 1,
    "profile": 3,
    "order": 4,
    "nash-compare": 2,
    "codim": 4,
    "chain": 2,
    "nash-valuations": 2,
    "sing": 2,
    "generic-arc": 2,
}


# malformed input on G(3, 6), for which the documented answer is exit 2
CLI_MALFORMED = (
    ("lct", ["--lambda", "3,x"]),
    ("lct", ["--lambda", "9,1"]),
    ("order", ["--beta", "0 1 0; 0 0 0; 0 0 0", "--lambda", "1"]),
    ("nash-compare", ["--beta", "1 1; 1 0", "--beta2", "1 0 0; 0 0 0; 0 0 0"]),
    ("codim", ["--beta", "1 -1 0; 0 0 0; 0 0 0"]),
    ("profile", ["--arc", "t^^2, 0, 0, 1; 0, t, 1, 0"]),
    ("profile", ["--arc", "t, 0, 1; 1, 0, 0"]),
    ("order", ["--beta", "2 1 0; 1 0 0; 0 0 0", "--plucker", "[1,1,2]"]),
    ("generic-arc", ["--beta", "inf 1 0; 1 0 0; 0 0 0"]),
    ("sing", []),
)
CLI_ZERO_DENOMINATOR = 1  # arcs with "p/0": exit 2 by the contract
CLI_UNDER_PRECISION = 1  # each of profile and generic-arc below the needed precision: exit 3


def cli_oneshot(rng):
    specs = []

    def add(kind, k, args, expect, **extra):
        output = rng.choice(["--json", "--plain", None]) if expect == 0 else None
        argv = [kind, "--k", str(k), "--n", str(2 * k)] + args + ([output] if output else [])
        spec = {"kind": kind, "shape": (k, 2 * k), "argv": argv, "expect": expect,
                "json": "--json" in argv, "defect": None}
        spec.update(extra)
        specs.append(spec)

    for kind, count in CLI_VALID.items():
        for r in range(count):
            k = CLI_SHAPES[r % len(CLI_SHAPES)]
            c = k
            if kind in ("lct", "arnold"):
                if r % 3 == 0:
                    a, b = rng.randint(1, k), rng.randint(1, c)
                    lam = (b,) * a
                else:
                    lam = random_partition(rng, k, c)
                add(kind, k, ["--lambda", oracle.format_parts(lam)], 0, lam=lam)
            elif kind == "lct-table":
                add(kind, 3 + r, [], 0)
            elif kind == "profile":
                beta = random_plane_partition(rng, k, c, rng.randint(1, 3))
                prec = oracle.diagonal_sum(beta, 1, 1) + rng.randint(0, 3)
                units = [[rng.randint(1, 9) for _ in range(c)] for _ in range(k)]
                arc = oracle.big_cell_arc(oracle.path_sum_matrix(beta, prec, units), prec)
                leave = r % 3 == 2
                if leave:
                    moved = oracle.leave_big_cell(arc, rng.choice)
                    leave = moved is not None
                    arc = moved or arc
                add(kind, k, ["--arc", oracle.format_arc(arc), "--prec", str(prec), "--seed", str(r)],
                    0, beta=beta, prec=prec, translated=leave)
            elif kind == "order":
                beta = random_plane_partition(rng, k, c, rng.randint(1, 3))
                if r % 4 == 3:
                    lam = singular_partition(rng, k, c)
                    beta = oracle.nash_valuation(lam, rng.choice(oracle.singular_components(lam, k, c)), k, c)
                if r % 2:
                    lam = random_partition(rng, k, c)
                    add(kind, k, ["--beta", oracle.format_beta(beta), "--lambda", oracle.format_parts(lam)], 0,
                        beta=beta, lam=lam)
                else:
                    entries = tuple(sorted(rng.sample(range(1, 2 * k + 1), k)))
                    add(kind, k, ["--beta", oracle.format_beta(beta), "--plucker", "[" + ",".join(map(str, entries)) + "]"],
                        0, beta=beta, entries=entries)
            elif kind == "nash-compare":
                b1 = random_plane_partition(rng, k, c, rng.randint(1, 3))
                b2 = grow(rng, b1, rng.randint(1, 3)) if r % 2 else random_plane_partition(rng, k, c, rng.randint(1, 3))
                add(kind, k, ["--beta", oracle.format_beta(b1), "--beta2", oracle.format_beta(b2)], 0, pair=(b1, b2))
            elif kind in ("codim", "chain"):
                beta = random_plane_partition(rng, k, c, rng.randint(1, 3))
                if kind == "codim" and r % 4 == 3:
                    lam = singular_partition(rng, k, c)
                    beta = oracle.nash_valuation(lam, rng.choice(oracle.singular_components(lam, k, c)), k, c)
                add(kind, k, ["--beta", oracle.format_beta(beta)], 0, beta=beta)
            elif kind in ("nash-valuations", "sing"):
                lam = random_partition(rng, k, c) if kind == "sing" and r % 3 == 0 else singular_partition(rng, k, c)
                add(kind, k, ["--lambda", oracle.format_parts(lam)], 0, lam=lam)
            elif kind == "generic-arc":
                k = 2 + r % 2
                beta = random_plane_partition(rng, k, k, rng.randint(1, 3))
                prec = oracle.diagonal_sum(beta, 1, 1) + rng.randint(0, 2)
                add(kind, k, ["--beta", oracle.format_beta(beta), "--prec", str(prec), "--seed", str(rng.randrange(1000))],
                    0, beta=beta, prec=prec)

    for kind, args in CLI_MALFORMED:
        add(kind, 3, args, 2)
    # arcs with a zero denominator: exit 2 by the contract
    for _ in range(CLI_ZERO_DENOMINATOR):
        add("profile", 2, ["--arc", f"{rng.randint(1, 9)}/0, 0, 0, 1; 0, t, 1, 0"], 2, defect="5.1")

    # under-precision: the documented answer is exit 3
    for r in range(CLI_UNDER_PRECISION):
        k = 2 + r % 2
        beta = plane_partition(rng, k, k, 3 + r % 2, random_partition(rng, k, k))
        prec = oracle.diagonal_sum(beta, 1, 1)
        units = [[1] * k for _ in range(k)]
        arc = oracle.big_cell_arc(oracle.path_sum_matrix(beta, prec, units), prec)
        low = max(0, prec - 2 - r % 2)
        add("profile", k, ["--arc", oracle.format_arc(arc), "--prec", str(low)], 3)
    for r in range(CLI_UNDER_PRECISION):
        k = 2 + r % 2
        beta = plane_partition(rng, k, k, 3 + r % 2, random_partition(rng, k, k))
        low = max(0, oracle.diagonal_sum(beta, 1, 1) - 1 - r)
        add("generic-arc", k, ["--beta", oracle.format_beta(beta), "--prec", str(low)], 3, defect="5.2")

    rng.shuffle(specs)
    expect = Counter(s["expect"] for s in specs)
    mix = {
        "requests_per_shape": _shape_mix(specs),
        "requests_per_subcommand": dict(sorted(Counter(s["kind"] for s in specs).items())),
        "invalid_share": share(expect[2] + expect[3], len(specs)),
        "malformed_share": share(expect[2], len(specs)),
        "under_precision_share": share(expect[3], len(specs)),
        "json_share": share(sum(s["json"] for s in specs), len(specs)),
        "leave_big_cell_share": share(sum(bool(s.get("translated")) for s in specs), len(specs)),
        "inf_share": share(sum(any(e == INF for row in s.get("beta", ((0,),)) for e in row) for s in specs), len(specs)),
        "seen_shape_share": _seen_share(specs),
    }
    return specs, mix


GENERATORS = {
    "arc-profiles": arc_profiles,
    "strata": strata,
    "lct-sweep": lct_sweep,
    "cli-oneshot": cli_oneshot,
}


def generate(workload, seed):
    """Specs of one round of ``workload`` and their property mix."""
    rng = random.Random(f"{workload}/{seed}")
    return GENERATORS[workload](rng)

