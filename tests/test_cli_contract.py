"""CLI exit-code contract: any argument list ends in 0, 2, 3 or 4, or in an
argparse exit with 0 or 2, and never in another exception."""

import contextlib
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schubert_arcs.cli import main

JUNK = st.sampled_from(["1/0", "inf", "[1,1]", "x", ""])
# the options each of the 11 subcommands takes; order takes exactly one of
# --lambda and --plucker
TAKES = {
    "lct": ("--lambda",), "arnold": ("--lambda",), "lct-table": (),
    "profile": ("--arc", "--prec", "--seed"), "order": ("--beta", "--lambda", "--plucker"),
    "nash-compare": ("--beta", "--beta2"), "codim": ("--beta",), "chain": ("--beta",),
    "nash-valuations": ("--lambda",), "sing": ("--lambda",),
    "generic-arc": ("--beta", "--prec", "--seed"),
}
SWITCHES = ("--json", "--plain", "--help")


@st.composite
def plane_text(draw, k, c):
    """A k x c plane partition, each entry at most its north and west
    neighbours (4 stands for inf), now and then with one entry out of order."""
    rows = []
    for i in range(k):
        row = []
        for j in range(c):
            row.append(draw(st.integers(0, min(rows[i - 1][j] if i else 4, row[j - 1] if j else 4))))
        rows.append(row)
    if draw(st.sampled_from(range(10))) == 9:
        rows[draw(st.integers(0, k - 1))][draw(st.integers(0, c - 1))] = draw(st.integers(0, 9))
    return "; ".join(" ".join("inf" if e == 4 else str(e) for e in row) for row in rows)


@st.composite
def arc_text(draw, k, n):
    entries = st.sampled_from(["0", "1", "t", "t^2", "2*t", "1+t", "t^9", "-1"])
    return "; ".join(", ".join(draw(entries) for _ in range(n)) for _ in range(k))


@st.composite
def argument_lists(draw):
    """A subcommand on a shape 1 <= k < n <= 6, each option it takes nearly
    always present with a value well-formed for the shape or, one time in
    ten, junk, and now and then an option or switch it does not expect."""
    command = draw(st.sampled_from(list(TAKES)))
    n = draw(st.integers(2, 6))
    k = draw(st.integers(1, n - 1))
    c = n - k
    values = {
        "--k": st.just(str(k)),
        "--n": st.just(str(n)),
        "--lambda": st.lists(st.integers(0, c), min_size=1, max_size=k).map(
            lambda ps: ",".join(map(str, sorted(ps, reverse=True)))),
        "--beta": plane_text(k, c),
        "--beta2": plane_text(k, c),
        "--arc": arc_text(k, n),
        "--plucker": st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True).map(
            lambda es: "[" + ",".join(map(str, sorted(es))) + "]"),
        "--prec": st.integers(-1, 20).map(str),
        "--seed": st.integers(-1, 20).map(str),
    }
    takes = TAKES[command]
    if command == "order":
        takes = ("--beta", draw(st.sampled_from(["--lambda", "--plucker"])))
    argv = [command]
    for option, value in values.items():
        expected = option in ("--k", "--n") or option in takes
        # the last of 40 (or 10) choices is the rare one: hypothesis favours
        # the first
        if (draw(st.sampled_from(range(40))) < 39) == expected:
            argv += [option, draw(JUNK if draw(st.sampled_from(range(10))) == 9 else value)]
    for switch in SWITCHES:
        if draw(st.sampled_from(range(40))) == 39:
            argv.append(switch)
    return argv


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(argument_lists())
@example(["profile", "--k", "2", "--n", "4", "--arc", "1/0,0,0,1;0,t,1,0"])
@example(["generic-arc", "--k", "2", "--n", "4", "--beta", "9 9; 9 9", "--prec", "2"])
@example(["codim", "--k", "2", "--n", "4", "--beta", "inf 1; 1 0"])
@example(["lct-table", "--k", "3", "--n", "3"])
@example(["order", "--k", "2", "--n", "4", "--beta", "1 1; 1 0", "--plucker", "[1,1]"])
# numbers too large to index with or to allocate; never one from about 1e8
# to 1e17, which could really be allocated
@example(["profile", "--k", "2", "--n", "4", "--arc", "t, 0, 0, 1; 0, t, 1, 0",
          "--prec", "10000000000000000000"])
@example(["generic-arc", "--k", "2", "--n", "4", "--beta", "1 0; 0 0",
          "--prec", "1000000000000000000"])
@example(["lct", "--k", "200000000000000000000", "--n", "400000000000000000000",
          "--lambda", "1"])
def test_cli_ends_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code in (0, 2), (argv, exc.code)
            return
    assert code in (0, 2, 3, 4), (argv, code)


def _help(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    return out.getvalue()


def test_top_level_help_lists_every_subcommand():
    # the parser builds only the named subcommand's options, but registers all
    listed = {line.split()[0] for line in _help(["--help"]).splitlines() if line.startswith("    ")}
    assert set(TAKES) <= listed


@pytest.mark.parametrize("command", list(TAKES))
def test_subcommand_help_shows_its_options(command):
    text = _help([command, "--help"])
    for option in ("--k", "--n", "--json", "--plain", *TAKES[command]):
        assert option in text.split("options:")[-1], (command, option)
