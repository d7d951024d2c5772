"""Requests of the four workloads: how each one calls the package, the text
it leaves in the result digest, and the independent check of its result.

A workload turns the generator's specs into thunks with ``prepare``; each
thunk is one request and calls only public functions of the package (or, in
``cli-oneshot``, starts one interpreter).  ``record`` gives the canonical
text of a result and ``check`` returns None for a correct result or the
reason it is wrong.  Checks use ``oracle`` and never the package.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from math import comb, gcd
from pathlib import Path

import oracle

INF = oracle.INF
HERE = Path(__file__).resolve().parent
CLI_TIMEOUT_S = 120


def plain_rows(rows):
    """Package plane-partition rows with Infinity replaced by math.inf."""
    return tuple(tuple(e if isinstance(e, int) else INF for e in row) for row in rows)


def plain_value(value):
    return value if isinstance(value, int) else INF


def read_ext(token):
    return INF if token == "inf" else int(token)


class Package:
    """The package's layer modules, imported afresh for each round."""

    def __init__(self, modules):
        for name, module in modules.items():
            setattr(self, name, module)

    def shape(self, shape):
        return self.partitions.GrassmannShape(*shape)

    def beta(self, rows, shape):
        pp = self.plane_partitions
        rows = [[pp.INF if e == INF else e for e in row] for row in rows]
        return pp.PlanePartition(rows, self.shape(shape))

    def partition(self, parts, shape):
        return self.partitions.Partition(parts, self.shape(shape))


# -- Verdict checks shared by strata and cli-oneshot -------------------------

_DROP = re.compile(r"order of \[([\d,]+)\] drops: (\S+) > (\S+)$")
_VOLUME = re.compile(r"volume must strictly increase: (\S+) vs (\S+)$")


class OrderCache:
    """Pluecker orders per plane partition, computed by the oracle once."""

    def __init__(self):
        self.tables = {}

    def all(self, beta, k, n):
        key = (beta, k, n)
        if key not in self.tables:
            self.tables[key] = oracle.plucker_orders(beta, k, n)
        return self.tables[key]

    def one(self, beta, k, n, entries):
        if (beta, k, n) in self.tables:
            return self.tables[(beta, k, n)][entries]
        return oracle.plucker_order(beta, k, n, entries)


def check_verdict(b1, b2, shape, relation, witness, orders):
    k, n = shape
    if relation not in ("contains", "not-contains", "unknown"):
        return f"unknown relation {relation!r}"
    if shape == (2, 4):
        o1, o2 = oracle.g24_orders(b1), oracle.g24_orders(b2)
        expected = "contains" if b1 == b2 or all(o1[i] <= o2[i] for i in o1) else "not-contains"
        return None if relation == expected else f"G(2, 4) closed forms give {expected}, got {relation}"
    if b1 == b2:
        return None if relation == "contains" else f"equal plane partitions gave {relation}"
    v1, v2 = oracle.volume(b1), oracle.volume(b2)
    if relation == "not-contains":
        drop = _DROP.match(witness)
        if drop:
            entries = tuple(int(e) for e in drop.group(1).split(","))
            o1, o2 = orders.one(b1, k, n, entries), orders.one(b2, k, n, entries)
            claimed = (read_ext(drop.group(2)), read_ext(drop.group(3)))
            if (o1, o2) != claimed or not o1 > o2:
                return f"witness {witness!r} but the orders are {o1} and {o2}"
            return None
        vol = _VOLUME.match(witness)
        if vol:
            if (read_ext(vol.group(1)), read_ext(vol.group(2))) != (v1, v2):
                return f"witness {witness!r} but the volumes are {v1} and {v2}"
            if v1 < v2 or v1 == v2 == INF:
                return f"volumes {v1} and {v2} do not refute containment"
            return None
        return f"not-contains without a checkable witness: {witness!r}"
    # contains and unknown both claim that the necessary conditions hold
    if not (v1 < v2 or v1 == v2 == INF):
        return f"{relation} but the volume does not increase: {v1} vs {v2}"
    t1, t2 = orders.all(b1, k, n), orders.all(b2, k, n)
    for entries, o in t1.items():
        if not o <= t2[entries]:
            return f"{relation} but the Pluecker order of {list(entries)} drops: {o} > {t2[entries]}"
    return None


def check_witness(beta, lam, lct_value):
    """An integer or rational witness must be a plane partition whose
    contact order per unit volume is the Arnold multiplicity 1/lct."""
    k, c = len(beta), len(beta[0])
    rows_ok = all(
        beta[i][j] >= 0
        and (j + 1 == c or beta[i][j] >= beta[i][j + 1])
        and (i + 1 == k or beta[i][j] >= beta[i + 1][j])
        for i in range(k)
        for j in range(c)
    )
    if not rows_ok:
        return f"witness {beta} is not a plane partition"
    vol = sum(e for row in beta for e in row)
    if not vol:
        return "witness has volume zero"
    ratio = Fraction(oracle.ord_schubert(beta, lam)) / vol
    if ratio != 1 / Fraction(lct_value):
        return f"witness gives ord/|w| = {ratio}, but 1/lct = {1 / Fraction(lct_value)}"
    return None


# -- arc-profiles -------------------------------------------------------------


def leave_big_cell(pkg, arc, pick):
    """Move a package arc out of the big cell by an upper-triangular change
    of columns; returns (arc, moved)."""
    polys = [[list(e.coeffs) for e in row] for row in arc.entries]
    moved = oracle.leave_big_cell(polys, lambda cands: cands[pick % len(cands)])
    if moved is None:
        return arc, False
    series = pkg.series
    return series.SeriesMatrix([[series.TruncatedSeries(p) for p in row] for row in moved]), True


class ArcProfiles:
    name = "arc-profiles"

    def prepare(self, specs, pkg):
        thunks = []
        for s in specs:
            beta = pkg.beta(s["beta"], s["shape"])

            def run(s=s, beta=beta):
                arc = pkg.networks.generic_arc(beta, precision=s["prec"], seed=s["unit_seed"])
                moved = False
                if s["leave"]:
                    arc, moved = leave_big_cell(pkg, arc, s["pick"])
                try:
                    return pkg.series.invariant_factor_profile(arc), False, moved
                except pkg.series.NotInBigCell:
                    arc = pkg.series.borel_translate(arc, seed=s["borel_seed"])
                    return pkg.series.invariant_factor_profile(arc), True, moved

            thunks.append(run)
        return thunks

    def record(self, spec, value):
        profile, translated, _ = value
        return f"{oracle.format_beta(plain_rows(profile.rows))} translated={translated}"

    def check(self, spec, value, ctx):
        profile, translated, moved = value
        got = plain_rows(profile.rows)
        if got != spec["beta"]:
            return f"profile {got} differs from the generating beta {spec['beta']}"
        if translated != moved:
            return f"translated={translated} but the arc {'left' if moved else 'stayed in'} the big cell"
        return None

    def observe(self, spec, value):
        """Largest finite contact order over the arc precision."""
        return {"precision_used": oracle.diagonal_sum(plain_rows(value[0].rows), 1, 1) / spec["prec"]}


# -- strata -------------------------------------------------------------------


class Strata:
    name = "strata"

    def prepare(self, specs, pkg):
        nash, networks = pkg.nash, pkg.networks
        thunks = []
        for s in specs:
            shape = s["shape"]
            if s["kind"] == "compare":
                b1, b2 = (pkg.beta(b, shape) for b in s["pair"])
                thunks.append(lambda b1=b1, b2=b2: nash.compare(b1, b2))
            elif s["kind"] == "compare-valuation":
                lam = pkg.partition(s["lam"], shape)
                other = pkg.beta(s["other"], shape)

                def run(s=s, lam=lam, other=other):
                    vals = nash.nash_valuations(lam)
                    v = vals[s["index"]]
                    pair = (v, other) if s["valuation_first"] else (other, v)
                    return vals, nash.compare(*pair)

                thunks.append(run)
            elif s["kind"] == "discrepancy":
                beta = pkg.beta(s["beta"], shape)
                thunks.append(lambda beta=beta: nash.discrepancy_data(beta))
            else:
                beta = pkg.beta(s["beta"], shape)
                thunks.append(lambda beta=beta, e=s["entries"]: networks.plucker_ord(beta, e))
        return thunks

    def record(self, spec, value):
        kind = spec["kind"]
        if kind == "compare":
            return f"{value.relation}: {value.witness}"
        if kind == "compare-valuation":
            vals, verdict = value
            return " | ".join(oracle.format_beta(plain_rows(v.rows)) for v in vals) + f" {verdict.relation}: {verdict.witness}"
        if kind == "discrepancy":
            return " ".join(map(str, value))
        return str(value)

    def check(self, spec, value, ctx):
        k, n = spec["shape"]
        orders = ctx.setdefault("orders", OrderCache())
        kind = spec["kind"]
        if kind == "compare":
            b1, b2 = spec["pair"]
            return check_verdict(b1, b2, spec["shape"], value.relation, value.witness, orders)
        if kind == "compare-valuation":
            vals, verdict = value
            lam = spec["lam"]
            expected = [oracle.nash_valuation(lam, mu, k, k) for mu in oracle.singular_components(lam, k, k)]
            got = [plain_rows(v.rows) for v in vals]
            if got != expected:
                return f"nash valuations {got}, expected {expected}"
            v = expected[spec["index"]]
            b1, b2 = (v, spec["other"]) if spec["valuation_first"] else (spec["other"], v)
            return check_verdict(b1, b2, spec["shape"], verdict.relation, verdict.witness, orders)
        if kind == "discrepancy":
            vol, q, disc = value
            beta = spec["beta"]
            if vol != oracle.volume(beta):
                return f"codimension {vol}, but beta has {oracle.volume(beta)} boxes"
            if disc != vol - q:
                return f"discrepancy {disc} is not codimension minus multiplicity {vol - q}"
            expected_q = 0
            for o in orders.all(beta, k, n).values():
                expected_q = gcd(expected_q, o)
            if q != expected_q:
                return f"multiplicity {q}, but the gcd of the Pluecker orders is {expected_q}"
            return None
        expected = orders.one(spec["beta"], k, n, spec["entries"])
        if plain_value(value) != expected:
            return f"Pluecker order {value}, expected {expected}"
        return None

    def observe(self, spec, value):
        return {}


# -- lct-sweep ----------------------------------------------------------------


class LctSweep:
    name = "lct-sweep"

    def prepare(self, specs, pkg):
        thunks = []
        for s in specs:
            if s["kind"] == "all-partitions":
                shape = pkg.shape(s["shape"])
                thunks.append(lambda shape=shape: list(pkg.partitions.all_partitions(shape)))
                continue
            lam = pkg.partition(s["lam"], s["shape"])
            name = "lct" if s["kind"] == "lct" else "integer_witness"
            thunks.append(lambda name=name, lam=lam: getattr(pkg.lct, name)(lam))
        return thunks

    def record(self, spec, value):
        if spec["kind"] == "all-partitions":
            return str(len(value))
        if spec["kind"] == "lct":
            return str(value)
        return oracle.format_beta(plain_rows(value.rows))

    def check(self, spec, value, ctx):
        k, n = spec["shape"]
        if spec["kind"] == "all-partitions":
            got = [p.parts for p in value]
            if len(set(got)) != len(got) or len(got) != comb(n, k) - 1:
                return f"{len(got)} partitions, expected {comb(n, k) - 1} distinct ones"
            return None
        lams = ctx.setdefault("lct", {})
        if spec["kind"] == "lct":
            lams[spec["lam"]] = value
            if not value > 0:
                return f"threshold {value} is not positive"
            if spec["rect"]:
                a, b = spec["rect"]
                expected = oracle.lct_rectangle(a, b, k, n - k)
                if value != expected:
                    return f"rectangle {spec['rect']}: lct {value}, closed form {expected}"
            return None
        if spec["lam"] not in lams:
            return "no threshold computed before the witness"
        return check_witness(plain_rows(value.rows), spec["lam"], lams[spec["lam"]])

    def observe(self, spec, value):
        return {}


# -- cli-oneshot --------------------------------------------------------------


def _lines(stdout):
    out = {}
    for line in stdout.splitlines():
        key, sep, rest = line.partition(": ")
        if sep:
            out.setdefault(key, rest)
    return out


def _frac_matrix(text):
    return tuple(tuple(Fraction(x) for x in row.split()) for row in text.split(";"))


def _check_lct(spec, out, as_json):
    if as_json:
        d = json.loads(out)
        lct, arnold = Fraction(d["lct"]), Fraction(d["arnold"])
        witness = tuple(tuple(Fraction(x) for x in row) for row in d["witness"])
    else:
        d = _lines(out)
        lct, arnold = Fraction(d["lct"]), Fraction(d["arnold"])
        witness = _frac_matrix(d["witness"])
    k = spec["shape"][0]
    if arnold != 1 / lct:
        return f"arnold {arnold} is not 1/lct for lct {lct}"
    if sum(e for row in witness for e in row) != 1:
        return "witness does not have volume one"
    problem = check_witness(witness, spec["lam"], lct)
    if problem:
        return problem
    lam = spec["lam"]
    if len(set(lam)) == 1:
        expected = oracle.lct_rectangle(len(lam), lam[0], k, k)
        if lct != expected:
            return f"rectangle {lam}: lct {lct}, closed form {expected}"
    return None


def _check_lct_table(spec, out, as_json):
    k, n = spec["shape"]
    if as_json:
        rows = json.loads(out)["rows"]
        entries = [(tuple(int(p) for p in r["lambda"].split(",")), Fraction(r["lct"]), r["witness"]) for r in rows]
    else:
        entries = []
        for line in out.splitlines():
            lam_text, _, value = line.partition(": lct ")
            entries.append((tuple(int(p) for p in lam_text.split(",")), Fraction(value), None))
    if sorted(e[0] for e in entries) != sorted(p for p in oracle.partitions_in_box(k, n - k) if p):
        return "the table does not list every non-empty partition once"
    for lam, lct, witness in entries:
        if len(set(lam)) == 1 and lct != oracle.lct_rectangle(len(lam), lam[0], k, n - k):
            return f"rectangle {lam}: lct {lct} differs from the closed form"
        if witness is not None:
            problem = check_witness(tuple(tuple(Fraction(x) for x in row) for row in witness), lam, lct)
            if problem:
                return f"{lam}: {problem}"
    return None


def _check_profile(spec, out, as_json):
    d = json.loads(out) if as_json else _lines(out)
    beta = spec["beta"]
    expected = {
        "beta": oracle.format_beta(beta),
        "alpha": oracle.format_beta(oracle.essential(beta)),
        "codim": str(oracle.volume(beta)),
        "translated": spec["translated"],
    }
    got = {
        "beta": d.get("beta"),
        "alpha": d.get("alpha"),
        "codim": str(d.get("codim")),
        "translated": d.get("translated") in (True, "true"),
    }
    return None if got == expected else f"profile report {got}, expected {expected}"


def _check_order(spec, out, as_json):
    value = json.loads(out)["order"] if as_json else _lines(out)["order"]
    got = read_ext(value) if isinstance(value, str) else value
    k, n = spec["shape"]
    if "lam" in spec:
        expected = oracle.ord_schubert(spec["beta"], spec["lam"])
    else:
        expected = oracle.plucker_order(spec["beta"], k, n, spec["entries"])
    return None if got == expected else f"order {got}, expected {expected}"


def _check_nash_compare(spec, out, as_json):
    d = json.loads(out) if as_json else _lines(out)
    b1, b2 = spec["pair"]
    return check_verdict(b1, b2, spec["shape"], d["relation"], d["witness"], OrderCache())


def _check_codim(spec, out, as_json):
    d = json.loads(out) if as_json else _lines(out)
    beta = spec["beta"]
    k, n = spec["shape"]
    vol = oracle.volume(beta)
    if vol == INF:
        return None if str(d["codim"]) == "inf" else f"codim {d['codim']} for an infinite plane partition"
    codim, q, disc = (int(d[key]) for key in ("codim", "multiplicity (computed)", "discrepancy"))
    expected_q = 0
    for o in oracle.plucker_orders(beta, k, n).values():
        expected_q = gcd(expected_q, o)
    if (codim, q, disc) != (vol, expected_q, vol - expected_q):
        return f"codim data {(codim, q, disc)}, expected {(vol, expected_q, vol - expected_q)}"
    return None


def _check_chain(spec, out, as_json):
    if as_json:
        d = json.loads(out)
        chain = [oracle.parse_beta(t) for t in d["chain"]]
    else:
        d = None
        chain = [oracle.parse_beta(t) for t in out.splitlines()]
    beta = spec["beta"]
    k, n = spec["shape"]
    c = n - k
    h = beta[0][0]
    if chain[0] != tuple((0,) * c for _ in range(k)) or chain[-1] != tuple((h,) * c for _ in range(k)):
        return "the chain does not run from zero to the constant plane partition"
    if beta not in chain:
        return "the chain misses beta"
    for prev, nxt in zip(chain, chain[1:]):
        diff = [(b - a) for ra, rb in zip(prev, nxt) for a, b in zip(ra, rb)]
        if sorted(diff) != [0] * (len(diff) - 1) + [1] or not oracle.is_plane_partition(nxt, k, c):
            return "a step of the chain is not a single added box"
    if d is not None and (d["length"] != len(chain) - 1 or d["index_of_beta"] != chain.index(beta)):
        return "chain length or index of beta misreported"
    return None


def _expected_valuations(spec):
    k = spec["shape"][0]
    lam = spec["lam"]
    comps = oracle.singular_components(lam, k, k)
    return comps, [oracle.format_beta(oracle.nash_valuation(lam, mu, k, k)) for mu in comps]


def _check_nash_valuations(spec, out, as_json):
    _, expected = _expected_valuations(spec)
    if as_json:
        got = json.loads(out)["valuations"]
    else:
        lines = out.splitlines()
        got = lines[1:] if lines and lines[0] == f"valuations: {len(lines) - 1}" else None
    return None if got == expected else f"valuations {got}, expected {expected}"


def _check_sing(spec, out, as_json):
    comps, vals = _expected_valuations(spec)
    expected = {
        "smooth": not comps,
        "components": [oracle.format_parts(mu) for mu in comps],
        "valuations": vals,
    }
    if as_json:
        got = json.loads(out)
    else:
        lines = out.splitlines()
        got = {
            "smooth": lines[0] == "smooth: true",
            "components": [line.partition(": ")[2] for line in lines[1::2]],
            "valuations": [line.partition(": ")[2] for line in lines[2::2]],
        }
    return None if got == expected else f"singular locus {got}, expected {expected}"


def _check_generic_arc(spec, out, as_json):
    text = json.loads(out)["arc"] if as_json else out.strip()
    prec = spec["prec"]
    k = spec["shape"][0]
    arc = oracle.parse_arc(text, prec)
    if len(arc) != k or any(len(row) != 2 * k for row in arc):
        return f"arc is not {k} x {2 * k}"
    for i, row in enumerate(arc):
        for j in range(k, 2 * k):
            unit = [1] + [0] * prec if j == 2 * k - 1 - i else [0] * (prec + 1)
            if row[j] != unit:
                return "arc is not in big-cell form"
    profile = oracle.arc_profile(arc, prec)
    if profile != spec["beta"]:
        return f"the arc's own profile is {profile}, not {spec['beta']}"
    return None


CLI_CHECKS = {
    "lct": _check_lct,
    "arnold": _check_lct,
    "lct-table": _check_lct_table,
    "profile": _check_profile,
    "order": _check_order,
    "nash-compare": _check_nash_compare,
    "codim": _check_codim,
    "chain": _check_chain,
    "nash-valuations": _check_nash_valuations,
    "sing": _check_sing,
    "generic-arc": _check_generic_arc,
}


def known_defect(spec, returncode):
    """The two documented contract defects of the CLI, recognised by input
    class and symptom: a zero denominator in an arc ends in a traceback
    (exit 1), and generic-arc below the needed precision exits 0."""
    return (spec["defect"] == "5.1" and returncode == 1) or (spec["defect"] == "5.2" and returncode == 0)


class CliOneshot:
    name = "cli-oneshot"

    def __init__(self, root):
        self.root = Path(root)
        self.trace_dir = None  # set per round by the runner when tracing
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(self.root / "src")
        self.env.pop("PYTHONSTARTUP", None)

    def prepare(self, specs, pkg):
        thunks = []
        for number, s in enumerate(specs):
            if self.trace_dir is None:
                cmd = [sys.executable, "-m", "schubert_arcs.cli", *s["argv"]]
            else:
                out = str(Path(self.trace_dir) / f"request-{number}.json")
                cmd = [sys.executable, str(HERE / "cli_launcher.py"), out, *s["argv"]]
            thunks.append(lambda cmd=cmd: self._run(cmd))
        return thunks

    def _run(self, cmd):
        done = subprocess.run(
            cmd, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S
        )
        return done.returncode, done.stdout

    def record(self, spec, value):
        returncode, stdout = value
        return f"exit {returncode}\n{stdout}"

    def check(self, spec, value, ctx):
        returncode, stdout = value
        if returncode != spec["expect"]:
            return f"exit {returncode}, the contract says {spec['expect']}"
        if returncode != 0:
            return None
        try:
            return CLI_CHECKS[spec["kind"]](spec, stdout, spec["json"])
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable output ({exc!r}): {stdout[:200]!r}"

    def observe(self, spec, value):
        returncode, stdout = value
        if spec["kind"] != "profile" or returncode != 0:
            return {}
        d = json.loads(stdout) if spec["json"] else _lines(stdout)
        alpha = [e for row in oracle.parse_beta(d["alpha"]) for e in row if e != INF]
        return {"precision_used": max(alpha, default=0) / spec["prec"]}


def make(name, root):
    if name == "cli-oneshot":
        return CliOneshot(root)
    return {"arc-profiles": ArcProfiles, "strata": Strata, "lct-sweep": LctSweep}[name]()


NAMES = ("arc-profiles", "strata", "lct-sweep", "cli-oneshot")
