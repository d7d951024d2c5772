"""Command-line interface.

Every subcommand takes the ambient shape as --k and --n, reads partitions,
plane partitions, and arc matrices in the same text formats the library
parses, and writes either line-oriented plain text (default) or a single
JSON document (--json).  Exact rationals are always rendered as "p/q".

Exit codes: 0 on success, 2 for invalid input (a number too large to
allocate or index included), 3 when a computation runs out of series
precision, 4 for internal invariant violations.

``main`` parses the shape and the --beta, --beta2, --lambda and --plucker
values with ``partitions`` and ``plane_partitions``, which load with this
module; a handler imports at call time only the layers not yet loaded, so a
run loads only what its subcommand needs: the LP subcommands never load the
series or network stacks, and the containment subcommands (and ``order
--plucker``) load neither the series layer nor the LP solver.  The parser
builds the options of the named subcommand only.
"""

from __future__ import annotations

import argparse
import sys

from .partitions import (
    GrassmannShape, _read_natural, all_partitions, format_partition, parse_multi_index, parse_partition,
    singular_components,
)
from .plane_partitions import (
    Infinity, PrecisionExceeded, essential_profile, format_ext, format_ext_matrix, format_plane_partition,
    ord_schubert, parse_plane_partition,
)


def natural(text: str) -> int:
    """The argparse type of --k, --n, --prec and --seed: a run of ASCII
    digits, as every number of the text formats."""
    return _read_natural(text)


def _frac(value) -> str:
    """An int or Fraction as "p/q"."""
    return f"{value.numerator}/{value.denominator}"


def _frac_matrix(matrix) -> str:
    return "; ".join(" ".join(_frac(e) for e in row) for row in matrix)


def _ext_json(value):
    return format_ext(value) if isinstance(value, Infinity) else value


def cmd_lct(args):
    from .lct import arnold_witness

    arnold, vertex = arnold_witness(args.lam)
    payload = {
        "k": args.k,
        "n": args.n,
        "lambda": format_partition(args.lam),
        "lct": _frac(1 / arnold),
        "arnold": _frac(arnold),
        "witness": [[_frac(e) for e in row] for row in vertex],
    }
    plain = [
        f"lct: {payload['lct']}",
        f"arnold: {payload['arnold']}",
        f"witness: {_frac_matrix(vertex)}",
    ]
    return payload, plain


def cmd_lct_table(args):
    from .lct import arnold_witness

    rows = []
    plain = []
    for lam in all_partitions(args.shape):
        arnold, vertex = arnold_witness(lam)
        value = _frac(1 / arnold)
        rows.append(
            {
                "lambda": format_partition(lam),
                "lct": value,
                "witness": [[_frac(e) for e in row] for row in vertex],
            }
        )
        plain.append(f"{format_partition(lam)}: lct {value}")
    return {"k": args.k, "n": args.n, "rows": rows}, plain


def cmd_profile(args):
    from .series import (
        NotInBigCell,
        borel_translate,
        invariant_factor_profile,
        parse_arc_matrix,
    )

    arc = parse_arc_matrix(args.arc, args.prec)
    if (arc.nrows, arc.ncols) != (args.k, args.n):
        raise ValueError(
            f"arc matrix is {arc.nrows} x {arc.ncols}, expected {args.k} x {args.n}"
        )
    translated = False
    try:
        beta = invariant_factor_profile(arc)
    except NotInBigCell:
        arc = borel_translate(arc, seed=args.seed)
        beta = invariant_factor_profile(arc)
        translated = True
    alpha = essential_profile(beta)
    payload = {
        "beta": format_plane_partition(beta),
        "alpha": format_ext_matrix(alpha),
        "codim": _ext_json(beta.volume),
        "translated": translated,
    }
    plain = [
        f"beta: {payload['beta']}",
        f"alpha: {payload['alpha']}",
        f"codim: {format_ext(beta.volume)}",
    ]
    if translated:
        plain.append("translated: true")
    return payload, plain


def cmd_order(args):
    if args.lam is not None:
        value = ord_schubert(args.beta, args.lam)
    else:
        from .networks import plucker_ord

        value = plucker_ord(args.beta, args.plucker)
    return {"order": _ext_json(value)}, [f"order: {format_ext(value)}"]


def cmd_nash_compare(args):
    from . import nash

    verdict = nash.compare(args.beta, args.beta2)
    payload = {"relation": verdict.relation, "witness": verdict.witness}
    return payload, [f"relation: {verdict.relation}", f"witness: {verdict.witness}"]


def cmd_codim(args):
    beta = args.beta
    if not beta.is_finite:
        return {"codim": _ext_json(beta.volume)}, [f"codim: {format_ext(beta.volume)}"]
    from . import nash

    volume, q, k = nash.discrepancy_data(beta)
    payload = {"codim": volume, "multiplicity (computed)": q, "discrepancy": k}
    plain = [
        f"codim: {volume}",
        f"multiplicity (computed): {q}",
        f"discrepancy: {k}",
    ]
    return payload, plain


def cmd_chain(args):
    from . import nash

    chain = nash.codim_chain(args.beta)
    payload = {
        "length": len(chain) - 1,
        "index_of_beta": chain.index(args.beta),
        "chain": [format_plane_partition(step) for step in chain],
    }
    return payload, payload["chain"]


def cmd_nash_valuations(args):
    from . import nash

    valuations = nash.nash_valuations(args.lam)
    formatted = [format_plane_partition(v) for v in valuations]
    return {"valuations": formatted}, [f"valuations: {len(formatted)}"] + formatted


def cmd_sing(args):
    from . import nash

    lam = args.lam
    components = singular_components(lam)
    valuations = nash.nash_valuations(lam) if lam else []
    payload = {
        "smooth": not components,
        "components": [format_partition(mu) for mu in components],
        "valuations": [format_plane_partition(v) for v in valuations],
    }
    plain = [f"smooth: {'true' if payload['smooth'] else 'false'}"]
    for mu, v in zip(payload["components"], payload["valuations"]):
        plain.append(f"component: {mu}")
        plain.append(f"valuation: {v}")
    return payload, plain


def cmd_generic_arc(args):
    from .networks import generic_arc
    from .series import format_arc_matrix

    arc = generic_arc(args.beta, precision=args.prec, seed=args.seed)
    text = format_arc_matrix(arc)
    return {"arc": text, "precision": args.prec}, [text]


def _add_options(sub, flags):
    sub.add_argument("--k", type=natural, required=True, help="number of rows k")
    sub.add_argument("--n", type=natural, required=True, help="ambient dimension n")
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", help="emit one JSON document")
    group.add_argument("--plain", action="store_true", help="emit plain text (default)")
    for flag in flags:
        if flag == "lambda":
            sub.add_argument("--lambda", dest="lam", required=True, metavar="PARTS",
                             help='partition, e.g. "3,1,1" (empty for the empty one)')
        elif flag == "beta":
            sub.add_argument("--beta", required=True, metavar="MATRIX",
                             help='plane partition, e.g. "2 2; 2 1" (inf allowed)')
        elif flag == "beta2":
            sub.add_argument("--beta2", required=True, metavar="MATRIX",
                             help="second plane partition")
        elif flag == "arc":
            sub.add_argument("--arc", required=True, metavar="MATRIX",
                             help='arc matrix, e.g. "t^2, 0, 0, 1; 0, t, 1, 0"')
        elif flag == "prec":
            sub.add_argument("--prec", type=natural, default=16,
                             help="series precision (default 16)")
        elif flag == "shift":
            sub.add_argument("--seed", type=natural, default=0,
                             help="first shift the Borel translation tries (default 0)")
        elif flag == "units":
            sub.add_argument("--seed", type=natural, default=None,
                             help="seed for random unit coefficients (default: every unit 1)")
        elif flag == "order-source":
            pick = sub.add_mutually_exclusive_group(required=True)
            pick.add_argument("--lambda", dest="lam", default=None, metavar="PARTS",
                              help="order of contact with this Schubert variety")
            pick.add_argument("--plucker", default=None, metavar="INDEX",
                              help='order of this Pluecker coordinate, e.g. "[1,3]"')


# name, handler, help line, and the options beyond --k, --n, --json, --plain
_SUBCOMMANDS = (
    ("lct", cmd_lct, "log canonical threshold of a Schubert pair", ("lambda",)),
    ("arnold", cmd_lct, "Arnold multiplicity of a Schubert pair", ("lambda",)),
    ("lct-table", cmd_lct_table, "thresholds of every Schubert variety of the shape", ()),
    ("profile", cmd_profile, "invariant factor profile of a concrete arc", ("arc", "prec", "shift")),
    ("order", cmd_order, "contact order of a stratum with a variety or coordinate",
     ("beta", "order-source")),
    ("nash-compare", cmd_nash_compare, "containment verdict between two stratum closures",
     ("beta", "beta2")),
    ("codim", cmd_codim, "codimension, multiplicity, and discrepancy of a stratum", ("beta",)),
    ("chain", cmd_chain, "one-box chain through the plane partition", ("beta",)),
    ("nash-valuations", cmd_nash_valuations, "Nash valuations of a Schubert variety", ("lambda",)),
    ("sing", cmd_sing, "singular locus components and Nash valuations", ("lambda",)),
    ("generic-arc", cmd_generic_arc, "a concrete arc generic for a stratum", ("beta", "prec", "units")),
)


def build_parser(argv) -> argparse.ArgumentParser:
    """The parser for the argument list argv: every subcommand with its help
    line, but options only for the one argparse dispatches to, the first
    token not starting with "-"; each option costs a help formatter."""
    parser = argparse.ArgumentParser(
        prog="schubert-arcs",
        description="Singularity invariants of Schubert varieties via arc spaces.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    named = next((token for token in argv if not token.startswith("-")), None)
    for name, handler, help_text, flags in _SUBCOMMANDS:
        sub = subparsers.add_parser(name, help=help_text)
        if name == named:
            _add_options(sub, flags)
            sub.set_defaults(handler=handler)
    return parser


# the flags main parses, in the order their errors are reported
_PARSED = (
    ("beta", parse_plane_partition),
    ("beta2", parse_plane_partition),
    ("lam", parse_partition),
    ("plucker", parse_multi_index),
)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    try:
        args.shape = GrassmannShape(args.k, args.n)
        for name, parse in _PARSED:
            text = getattr(args, name, None)
            if text is not None:
                setattr(args, name, parse(text, args.shape))
        payload, plain = args.handler(args)
    except (PrecisionExceeded, RuntimeError, ValueError, OverflowError, MemoryError) as exc:
        # a number too large to allocate or to index with is invalid input
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3 if isinstance(exc, PrecisionExceeded) else 4 if isinstance(exc, RuntimeError) else 2
    if args.json:
        import json

        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(plain))
    return 0


if __name__ == "__main__":
    sys.exit(main())
