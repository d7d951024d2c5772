"""Command-line interface: output shapes, exit codes, round-trips."""

import contextlib
import io
import json

import pytest

from schubert_arcs.cli import main


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run(argv + ["--json"])
    assert code == 0, err
    return json.loads(out)


def test_lct_plain():
    code, out, err = run(["lct", "--k", "2", "--n", "4", "--lambda", "2,1"])
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "lct: 3/1"
    assert lines[1] == "arnold: 1/3"
    assert lines[2].startswith("witness: ")


def test_lct_json():
    payload = run_json(["lct", "--k", "2", "--n", "4", "--lambda", "2,1"])
    assert payload == {
        "k": 2,
        "n": 4,
        "lambda": "2,1",
        "lct": "3/1",
        "arnold": "1/3",
        "witness": [["1/3", "1/3"], ["1/3", "0/1"]],
    }


def test_arnold_is_the_same_report():
    assert run(["arnold", "--k", "2", "--n", "4", "--lambda", "1"]) == run(
        ["lct", "--k", "2", "--n", "4", "--lambda", "1"]
    )


def test_lct_table():
    code, out, _ = run(["lct-table", "--k", "2", "--n", "4"])
    assert code == 0
    assert out.splitlines() == [
        "1: lct 1/1",
        "1,1: lct 2/1",
        "2: lct 2/1",
        "2,1: lct 3/1",
        "2,2: lct 4/1",
    ]
    payload = run_json(["lct-table", "--k", "2", "--n", "4"])
    assert len(payload["rows"]) == 5
    assert payload["rows"][3] == {
        "lambda": "2,1",
        "lct": "3/1",
        "witness": [["1/3", "1/3"], ["1/3", "0/1"]],
    }


def test_profile_of_three_arcs():
    arcs = {
        "t^2+t^3, t^2, 0, 1; t^2, t, 1, 0": "2 2; 2 1",
        "t^2, 0, 0, 1; 0, t, 1, 0": "2 2; 2 1",
        "t^3, t^2, 0, 1; t^2, 0, 1, 0": "2 2; 2 2",
    }
    for arc, beta in arcs.items():
        payload = run_json(
            ["profile", "--k", "2", "--n", "4", "--arc", arc, "--prec", "8"]
        )
        assert payload["beta"] == beta
        assert payload["translated"] is False


def test_profile_reports_codim_and_alpha():
    payload = run_json(
        ["profile", "--k", "2", "--n", "4", "--arc", "t^2, 0, 0, 1; 0, t, 1, 0"]
    )
    assert payload == {
        "beta": "2 2; 2 1",
        "alpha": "3 2; 2 1",
        "codim": 7,
        "translated": False,
    }


def test_profile_translates_out_of_general_position():
    payload = run_json(
        ["profile", "--k", "2", "--n", "4", "--arc", "1, 0, t, 0; 0, 1, 0, t"]
    )
    assert payload["translated"] is True
    assert payload["beta"] == "0 0; 0 0"
    code, out, _ = run(
        ["profile", "--k", "2", "--n", "4", "--arc", "1, 0, t, 0; 0, 1, 0, t"]
    )
    assert code == 0
    assert out.splitlines()[-1] == "translated: true"


def test_profile_translates_past_the_roots_of_the_last_block():
    # shifts 0 and 1 leave this arc outside the big cell; every seed still
    # translates it, where a failed translation used to exit 4
    argv = ["profile", "--k", "2", "--n", "4", "--arc", "1, 0, t, 0; 0, 1, 0, t-1"]
    for seed in ("0", "1", "2", "3"):
        assert run_json(argv + ["--seed", seed]) == {
            "beta": "0 0; 0 0",
            "alpha": "0 0; 0 0",
            "codim": 0,
            "translated": True,
        }


def test_profile_error_exits():
    code, _, err = run(["profile", "--k", "2", "--n", "4", "--arc", "t, 0, 0; 0, 1, 0"])
    assert code == 2 and err.startswith("error:")
    code, _, err = run(
        ["profile", "--k", "2", "--n", "4", "--arc", "0, 0, 0, 1; 0, 0, 1, 0", "--prec", "8"]
    )
    assert code == 3 and "precision" in err
    code, _, err = run(["profile", "--k", "2", "--n", "4", "--arc", "t, 0, 0, 0; 0, 1, 0, 0"])
    assert code == 2


def test_zero_denominator_exits_2():
    code, out, err = run(["profile", "--k", "2", "--n", "4", "--arc", "1/0,0,0,1;0,t,1,0"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "zero denominator" in err


def test_order_by_schubert_variety():
    code, out, _ = run(
        ["order", "--k", "2", "--n", "4", "--beta", "2 2; 2 1", "--lambda", "1"]
    )
    assert code == 0 and out == "order: 3\n"


def test_order_by_plucker_coordinate():
    code, out, _ = run(
        ["order", "--k", "2", "--n", "4", "--beta", "2 2; 2 1", "--plucker", "[1,3]"]
    )
    assert code == 0 and out == "order: 2\n"
    payload = run_json(
        ["order", "--k", "2", "--n", "4", "--beta", "inf 1; 1 0", "--plucker", "[1,2]"]
    )
    assert payload == {"order": "inf"}


def test_order_needs_exactly_one_source():
    with pytest.raises(SystemExit) as exc:
        main(["order", "--k", "2", "--n", "4", "--beta", "1 1; 1 0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(
            ["order", "--k", "2", "--n", "4", "--beta", "1 1; 1 0",
             "--lambda", "1", "--plucker", "[1,2]"]
        )
    assert exc.value.code == 2


def test_nash_compare():
    code, out, _ = run(
        ["nash-compare", "--k", "2", "--n", "4", "--beta", "1 1; 1 1", "--beta2", "1 1; 1 0"]
    )
    assert code == 0
    assert out.splitlines() == [
        "relation: not-contains",
        "witness: order of [1,2] drops: 2 > 1",
    ]
    payload = run_json(
        ["nash-compare", "--k", "2", "--n", "4", "--beta", "1 1; 1 0", "--beta2", "1 1; 1 1"]
    )
    assert payload["relation"] == "contains"


def test_codim_report():
    payload = run_json(["codim", "--k", "2", "--n", "4", "--beta", "1 1; 1 1"])
    assert payload == {"codim": 4, "multiplicity (computed)": 1, "discrepancy": 3}
    payload = run_json(["codim", "--k", "2", "--n", "4", "--beta", "inf 1; 1 0"])
    assert payload == {"codim": "inf"}


def test_chain_report():
    payload = run_json(["chain", "--k", "2", "--n", "4", "--beta", "3 2; 1 1"])
    assert payload["length"] == 12
    assert payload["index_of_beta"] == 7
    assert payload["chain"][0] == "0 0; 0 0"
    assert payload["chain"][7] == "3 2; 1 1"
    assert payload["chain"][-1] == "3 3; 3 3"
    code, out, _ = run(["chain", "--k", "2", "--n", "4", "--beta", "3 2; 1 1"])
    assert len(out.splitlines()) == 13


def test_nash_valuations_report():
    code, out, _ = run(["nash-valuations", "--k", "2", "--n", "4", "--lambda", "1"])
    assert code == 0
    assert out.splitlines() == ["valuations: 1", "inf 1; 1 1"]


def test_sing_report():
    payload = run_json(["sing", "--k", "2", "--n", "4", "--lambda", "1"])
    assert payload == {
        "smooth": False,
        "components": ["2,2"],
        "valuations": ["inf 1; 1 1"],
    }
    code, out, _ = run(["sing", "--k", "2", "--n", "4", "--lambda", "2,1"])
    assert code == 0 and out == "smooth: true\n"


def test_generic_arc_and_round_trip():
    code, out, _ = run(["generic-arc", "--k", "2", "--n", "4", "--beta", "2 2; 2 1"])
    assert code == 0
    assert out == "t^2+t^3, t^2, 0, 1; t^2, t, 1, 0\n"
    payload = run_json(
        ["profile", "--k", "2", "--n", "4", "--arc", out.strip()]
    )
    assert payload["beta"] == "2 2; 2 1"


def test_generic_arc_seed_is_reproducible():
    first = run(["generic-arc", "--k", "2", "--n", "4", "--beta", "2 2; 2 1", "--seed", "5"])
    again = run(["generic-arc", "--k", "2", "--n", "4", "--beta", "2 2; 2 1", "--seed", "5"])
    other = run(["generic-arc", "--k", "2", "--n", "4", "--beta", "2 2; 2 1", "--seed", "6"])
    assert first == again
    assert first != other
    arc = first[1].strip()
    payload = run_json(["profile", "--k", "2", "--n", "4", "--arc", arc])
    assert payload["beta"] == "2 2; 2 1"


def test_generic_arc_below_the_needed_precision_exits_3():
    code, out, err = run(
        ["generic-arc", "--k", "2", "--n", "4", "--beta", "9 9; 9 9", "--prec", "2"]
    )
    assert code == 3 and out == ""
    assert err.startswith("error:") and "precision" in err


def test_invalid_input_exits_2():
    code, _, err = run(["lct", "--k", "2", "--n", "4", "--lambda", ""])
    assert code == 2 and err.startswith("error:")
    code, _, err = run(["lct", "--k", "2", "--n", "4", "--lambda", "3,1"])
    assert code == 2
    code, _, err = run(["order", "--k", "2", "--n", "4", "--beta", "1 2; 1 0", "--lambda", "1"])
    assert code == 2
    code, out, err = run(["lct", "--k", "3", "--n", "6", "--lambda", "2,0,1"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "not weakly decreasing" in err
    # trailing zeros are only padding
    assert run(["lct", "--k", "3", "--n", "6", "--lambda", "2,1,0"]) == run(
        ["lct", "--k", "3", "--n", "6", "--lambda", "2,1"]
    )


def test_oversized_numbers_exit_2():
    # a precision or a shape too large to index with or to allocate used to
    # end in a traceback; none of these allocates: 8 EB are refused at once
    for argv in (
        ["profile", "--k", "2", "--n", "4", "--arc", "t, 0, 0, 1; 0, t, 1, 0",
         "--prec", "10000000000000000000"],
        ["generic-arc", "--k", "2", "--n", "4", "--beta", "1 0; 0 0",
         "--prec", "1000000000000000000"],
        ["lct", "--k", "200000000000000000000", "--n", "400000000000000000000",
         "--lambda", "1"],
    ):
        code, out, err = run(argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error:") and len(err) > len("error: \n"), argv


def test_argparse_failures_exit_2():
    for argv in (
        ["no-such-command"],
        ["lct", "--k", "2", "--n", "4"],
        ["lct", "--k", "2", "--n", "4", "--lambda", "1", "--json", "--plain"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
