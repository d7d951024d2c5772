"""What importing the package and running the CLI loads.

Each check runs in a fresh interpreter, because this one has pytest (which
imports dataclasses and inspect) and every layer the other tests use.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import schubert_arcs

PACKAGE_ROOT = str(Path(schubert_arcs.__file__).resolve().parent.parent)
HEAVY = {"schubert_arcs.series", "schubert_arcs.networks", "schubert_arcs.nash"}
LP = {"schubert_arcs.simplex"}
# exact rationals: the series layer, the LP solver, and the fractions they use
EXACT = {"schubert_arcs.series", "schubert_arcs.simplex", "fractions"}

# runs cli.main on sys.argv[1:] and prints (exit code, loaded modules) last
CLI_PROBE = """
import sys
from schubert_arcs import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(repr((code, sorted(sys.modules))))
"""

G24 = ["--k", "2", "--n", "4"]
ARC = ["--arc", "t, 0, 0, 1; 0, t, 1, 0"]
BETA = ["--beta", "2 1; 1 0"]

# (argv, exit code, layers the subcommand must not load)
CLI_RUNS = [
    (["lct", *G24, "--lambda", "2,1"], 0, HEAVY),
    (["arnold", *G24, "--lambda", "1", "--json"], 0, HEAVY),
    (["lct-table", *G24], 0, HEAVY),
    (["sing", *G24], 2, HEAVY | EXACT),
    (["profile", *G24, *ARC], 0, HEAVY - {"schubert_arcs.series"} | LP),
    (["profile", *G24, "--arc", "t^9, 0, 0, 1; 0, t, 1, 0", "--prec", "4"], 3,
     HEAVY - {"schubert_arcs.series"} | LP),
    (["order", *G24, *BETA, "--plucker", "[1,2]"], 0, {"schubert_arcs.nash"} | EXACT),
    (["order", *G24, *BETA, "--lambda", "1"], 0, HEAVY | EXACT),
    (["nash-compare", *G24, *BETA, "--beta2", "2 2; 1 0"], 0, EXACT),
    (["codim", *G24, *BETA], 0, EXACT),
    # only discrepancy data needs nash and the networks: an infinite plane
    # partition has none, and its codimension is its volume
    (["codim", *G24, "--beta", "inf 1; 1 0"], 0, HEAVY | EXACT),
    (["chain", *G24, *BETA], 0, EXACT | {"schubert_arcs.networks"}),
    (["nash-valuations", *G24, "--lambda", "1"], 0, EXACT | {"schubert_arcs.networks"}),
    (["sing", *G24, "--lambda", "1"], 0, EXACT | {"schubert_arcs.networks"}),
    (["generic-arc", *G24, *BETA], 0, {"schubert_arcs.nash"} | LP),
]


# names no program path calls: deleted, or moved to tests/oracles.py
NOT_PUBLIC = (
    "bruhat_leq", "codim", "contact_profile", "diagonal_sum", "lct_equals_codim", "lct_rectangular",
    "multi_index_from_partition", "necessary_containment", "partition_from_multi_index",
    "plucker_leq", "rim_size", "sufficient_by_plateau",
)


def run_python(code, *args):
    """Stdout of ``python -c code args`` with the package importable."""
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout


@pytest.mark.parametrize("argv, code, absent", CLI_RUNS, ids=[" ".join(run[0]) for run in CLI_RUNS])
def test_cli_loads_only_what_its_subcommand_uses(argv, code, absent):
    got_code, modules = ast.literal_eval(run_python(CLI_PROBE, *argv).splitlines()[-1])
    assert got_code == code
    assert not absent & set(modules)
    assert "dataclasses" not in modules and "inspect" not in modules


def test_package_import_loads_no_lp_solver_until_a_threshold():
    out = run_python(
        "import sys, schubert_arcs\n"
        "print(sorted({'schubert_arcs.simplex', 'fractions'} & set(sys.modules)))\n"
        "shape = schubert_arcs.GrassmannShape(2, 4)\n"
        "print(schubert_arcs.lct(schubert_arcs.Partition([2, 1], shape)))"
    )
    assert out.split("\n")[:2] == ["[]", "3"]


def test_lct_is_the_function_whatever_the_import_order():
    for code in (
        "import schubert_arcs.lct\nfrom schubert_arcs import lct",
        "from schubert_arcs import lct\nimport schubert_arcs.lct",
        "import schubert_arcs, schubert_arcs.lct\nlct = schubert_arcs.lct",
    ):
        assert run_python(code + "\nprint(type(lct).__name__)").strip() == "function", code


def test_every_public_name_is_its_defining_module_object():
    out = run_python(
        "import sys, types, schubert_arcs\n"
        "for module_name, names in schubert_arcs._EXPORTS.items():\n"
        "    for name in names:\n"
        "        obj = getattr(schubert_arcs, name)\n"
        "        home = sys.modules[f'schubert_arcs.{module_name}']\n"
        "        assert obj is getattr(home, name), name\n"
        "        if isinstance(obj, (type, types.FunctionType)):\n"
        "            assert obj.__module__ == home.__name__, name\n"
        "assert set(schubert_arcs.__all__) <= set(dir(schubert_arcs))\n"
        "assert schubert_arcs.series.PrecisionExceeded is schubert_arcs.PrecisionExceeded\n"
        "print('ok')"
    )
    assert out.strip() == "ok"
    assert len(set(schubert_arcs.__all__)) == len(schubert_arcs.__all__)


def test_names_only_the_tests_use_are_not_public():
    assert not set(NOT_PUBLIC) & set(schubert_arcs.__all__)
    for name in NOT_PUBLIC:
        with pytest.raises(AttributeError):
            getattr(schubert_arcs, name)
        for module_name in schubert_arcs._EXPORTS:
            module = importlib.import_module(f"schubert_arcs.{module_name}")
            assert not hasattr(module, name), (module_name, name)


def test_star_import_binds_every_public_name():
    out = run_python(
        "from schubert_arcs import *\n"
        "import schubert_arcs\n"
        "print(sorted(n for n in schubert_arcs.__all__ if n not in globals()))"
    )
    assert out.strip() == "[]"


def test_submodules_load_on_attribute_access():
    out = run_python(
        "import sys, schubert_arcs\n"
        "before = 'schubert_arcs.series' in sys.modules\n"
        "print(before, type(schubert_arcs.series).__name__, schubert_arcs.series.__name__)"
    )
    assert out.split() == ["False", "module", "schubert_arcs.series"]
    with pytest.raises(AttributeError):
        schubert_arcs.no_such_name
