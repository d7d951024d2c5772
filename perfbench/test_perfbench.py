"""Tests of the benchmark itself: tiny runs of every workload, failure
accounting, the traced run, and the oracles the checks rely on.

    python3 -m pytest perfbench -q
"""

import io
import json
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a handful of requests on small shapes."""
    monkeypatch.setattr(gen, "PROFILE_PLAN", ((2, 3, ((1,), (2, 1))), (3, 2, ((2, 1),))))
    monkeypatch.setattr(gen, "STRATA_PLAN", ((2, 2, 1, 1, 0, 0), (3, 1, 1, 1, 1, 2)))
    monkeypatch.setattr(gen, "LCT_PLAN", ((2, 2), (3, 2)))
    monkeypatch.setattr(gen, "CLI_VALID", {kind: 1 for kind in gen.CLI_VALID})
    monkeypatch.setattr(gen, "CLI_MALFORMED", gen.CLI_MALFORMED[:2])
    monkeypatch.setattr(gen, "CLI_ZERO_DENOMINATOR", 1)
    monkeypatch.setattr(gen, "CLI_UNDER_PRECISION", 1)


def bench(*args):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(list(args))
    lines = out.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_run_reports_every_end_to_end_metric(tiny, workload):
    code, lines, result = bench("--workload", workload, "--seed", "3", "--seconds", "0.01")
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["correct"], lines
    if workload == "cli-oneshot":
        # the two documented contract defects, one request of each per round
        assert result["failed"] == 2 * 2
    else:
        assert result["failed"] == 0
    assert any(line.startswith(f"digest {workload} seed=3 sha256=") for line in lines)


def test_same_seed_same_digest(tiny):
    digests = []
    for _ in range(2):
        _, lines, _ = bench("--workload", "strata", "--seed", "5", "--seconds", "0.01")
        digests.append(next(line for line in lines if line.startswith("digest")))
    assert digests[0] == digests[1]


def test_wrong_result_counts_as_failed(tiny, monkeypatch):
    prepare = workloads.LctSweep.prepare

    def one_partition_short(self, specs, pkg):
        thunks = prepare(self, specs, pkg)
        return [
            (lambda t=t: t()[:-1]) if spec["kind"] == "all-partitions" else t
            for spec, t in zip(specs, thunks)
        ]

    monkeypatch.setattr(workloads.LctSweep, "prepare", one_partition_short)
    _, lines, result = bench("--workload", "lct-sweep", "--seed", "1", "--seconds", "0.01")
    wrong = sum(s["kind"] == "all-partitions" for s in gen.generate("lct-sweep", 1)[0])
    rounds = int(lines[0].split(": ")[1].split()[0])
    assert result["failed"] == wrong * rounds
    assert not result["correct"]
    assert result["metrics"]["success_ratio"]["value"] == 1 - result["failed"] / result["attempted"]


def test_off_contract_exit_code_counts_as_failed(tiny, monkeypatch):
    monkeypatch.setattr(workloads.CliOneshot, "_run", lambda self, cmd: (1, ""))
    _, lines, result = bench("--workload", "cli-oneshot", "--seed", "2", "--seconds", "0.01")
    assert result["failed"] == result["attempted"]
    assert not result["correct"]
    assert any(line.startswith("FAILED request") for line in lines)


def test_known_defects_are_recognised_by_symptom():
    spec = {"defect": "5.1"}
    assert workloads.known_defect(spec, 1) and not workloads.known_defect(spec, 4)
    spec = {"defect": "5.2"}
    assert workloads.known_defect(spec, 0) and not workloads.known_defect(spec, 1)
    assert not workloads.known_defect({"defect": None}, 1)


def test_traced_run_reports_every_per_layer_metric(tiny):
    code, lines, result = bench("--workload", "lct-sweep", "--seed", "1", "--seconds", "0.01", "--trace", "1")
    assert code == 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert metrics["simplex.solve.calls"]["value"] > 0
    assert metrics["series.det.calls"]["value"] == 0
    assert metrics["trace.overhead_ratio"]["value"] > 0
    trace = HERE.parent / next(line.split(": ")[1] for line in lines if line.startswith("spans of"))
    header, first_span = trace.read_text().splitlines()[:2]
    assert json.loads(header)["workload"] == "lct-sweep"
    span_id, parent, name, start, end = json.loads(first_span)
    assert name.split(".")[0] in tracing.LAYERS and end >= start


def test_traced_cli_goes_through_the_launcher(tiny):
    _, _, result = bench("--workload", "cli-oneshot", "--seed", "1", "--seconds", "0.01", "--trace", "1")
    metrics = result["metrics"]
    assert metrics["cli.requests"]["value"] == metrics["cli.exit_0"]["value"] + metrics["cli.exit_2"]["value"] \
        + metrics["cli.exit_3"]["value"] + metrics["cli.exit_other"]["value"]
    assert metrics["cli.exit_other"]["value"] >= 1  # the zero-denominator traceback
    assert metrics["series.parse.self_s"]["value"] > 0


def test_counts_repeat_exactly(tiny):
    counts = []
    for _ in range(2):
        _, _, result = bench("--workload", "arc-profiles", "--seed", "4", "--seconds", "0.01", "--trace", "1")
        counts.append({k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")})
    assert counts[0] == counts[1]
    assert counts[0]["series.det.calls"] > 0


def test_without_the_package_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "strata", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# -- the oracles behind the checks --------------------------------------------


def _package_rows(rows, pp):
    return [[pp.INF if e == oracle.INF else e for e in row] for row in rows]


def test_tropical_dynamic_program_matches_the_package():
    from schubert_arcs import GrassmannShape, PlanePartition, plucker_ord
    from schubert_arcs import plane_partitions as pp

    rng = random.Random(11)
    for _ in range(40):
        k = rng.randint(1, 4)
        n = k + rng.randint(1, 4)
        beta = gen.random_plane_partition(rng, k, n - k, rng.randint(1, 3))
        if rng.random() < 0.3 and k > 1:
            lam = gen.random_partition(rng, k, n - k)
            comps = oracle.singular_components(lam, k, n - k)
            if comps:
                beta = oracle.nash_valuation(lam, comps[0], k, n - k)
        package_beta = PlanePartition(_package_rows(beta, pp), GrassmannShape(k, n))
        for entries, order in oracle.plucker_orders(beta, k, n).items():
            expected = plucker_ord(package_beta, entries)
            assert order == (oracle.INF if isinstance(expected, pp.Infinity) else expected)


def test_own_arcs_have_the_generating_profile():
    rng = random.Random(5)
    for _ in range(10):
        k = rng.randint(1, 3)
        beta = gen.random_plane_partition(rng, k, k, rng.randint(1, 3))
        prec = oracle.diagonal_sum(beta, 1, 1) + 1
        units = [[rng.randint(1, 9) for _ in range(k)] for _ in range(k)]
        arc = oracle.big_cell_arc(oracle.path_sum_matrix(beta, prec, units), prec)
        assert oracle.arc_profile(arc, prec) == beta
        assert oracle.parse_arc(oracle.format_arc(arc), prec) == arc


def test_g24_closed_forms_match_the_dynamic_program():
    rng = random.Random(2)
    for _ in range(100):
        beta = gen.random_plane_partition(rng, 2, 2, 3)
        assert oracle.g24_orders(beta) == oracle.plucker_orders(beta, 2, 4)


def test_generation_is_deterministic_and_seeded():
    for name in workloads.NAMES:
        assert gen.generate(name, 7) == gen.generate(name, 7)
        assert gen.generate(name, 7)[0] != gen.generate(name, 8)[0]
