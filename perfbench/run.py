"""Benchmark of schubert-arcs: four workloads, one caller, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs the four workloads one after the other, each in its
own process.  Run from the root of a source tree (the package is imported from ``src``).
A run repeats rounds until ``--seconds`` have passed, and at least two.  A
round imports the package afresh (so every round starts with cold caches,
as a new process would), generates its requests from the seed, then sends
them one at a time, each after the previous one returned, and times each
from outside.  Every result is checked: the first round against independent
recomputations, later rounds against the first round's results.  The time
metrics take each request at its fastest over the rounds: ``wall_s`` sums
these times and the latency percentiles rank them; ``setup_s`` is the
fastest of two set-ups per round.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one round
untraced and the rest with spans around every public function of the
package and prints the per-layer metrics.  The last line of standard output
is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"
IN_PROCESS_LAYERS = ("partitions", "plane_partitions", "series", "networks", "nash", "simplex", "lct")
MIN_ROUNDS = 2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mib": "MiB",
    "success_ratio": "ratio",
}


def now():
    return time.perf_counter_ns()


def drop_package():
    """Forget every module of the package, so that the next import starts
    with empty module-level caches, as a new process would."""
    for name in [n for n in sys.modules if n == tracing.PACKAGE or n.startswith(tracing.PACKAGE + ".")]:
        del sys.modules[name]
    gc.collect()


def import_package():
    importlib.import_module(tracing.PACKAGE)
    return workloads.Package(
        {layer: importlib.import_module(f"{tracing.PACKAGE}.{layer}") for layer in IN_PROCESS_LAYERS}
    )


def set_up(workload, seed):
    drop_package()  # not timed: it clears what the previous round left
    start = now()
    pkg = import_package()
    specs, mix = gen.generate(workload.name, seed)
    thunks = workload.prepare(specs, pkg)
    return now() - start, specs, mix, thunks


class Round:
    """One pass over the request set: set-up, timed requests, results."""

    def __init__(self, workload, seed, tracer=None):
        first_setup_ns, self.specs, self.mix, thunks = set_up(workload, seed)
        if tracer is not None:
            tracer.install()
        self.tracer = tracer
        self.latencies, self.values = [], []
        start = now()
        for thunk in thunks:
            begin = now()
            try:
                value, error = thunk(), None
            except Exception as exc:  # a failed request is counted, not fatal
                value, error = None, f"{type(exc).__name__}: {exc}"
            self.latencies.append(now() - begin)
            self.values.append((value, error))
        self.wall_ns = now() - start
        # A second set-up, seconds after the first.  A set-up is far shorter
        # than the host's spells at one speed, so set-ups timed back to back
        # would all see the same speed.
        self.setup_ns = (first_setup_ns, set_up(workload, seed)[0])

    def verify(self, workload, reference=None):
        """Records and problems of every request.  The first round is checked
        independently; later rounds must reproduce its records exactly."""
        self.records, self.problems, self.observed = [], [], []
        ctx = {}
        for number, (spec, (value, error)) in enumerate(zip(self.specs, self.values)):
            if error is not None:
                record, problem = f"raised {error}", f"raised {error}"
            else:
                record = workload.record(spec, value)
                if reference is None:
                    problem = workload.check(spec, value, ctx)
                elif record == reference.records[number]:
                    problem = reference.problems[number]
                else:
                    problem = "result differs from the first round"
                if problem is None:
                    self.observed.append(workload.observe(spec, value))
            self.records.append(record)
            self.problems.append(problem)
        self.values = None

    def digest(self):
        return hashlib.sha256("\n".join(self.records).encode()).hexdigest()


def is_known_defect(workload, spec, record):
    if workload.name != "cli-oneshot" or not record.startswith("exit "):
        return False
    return workloads.known_defect(spec, int(record.split()[1]))


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run_rounds(workload, seed, seconds, trace=False):
    """Rounds until ``seconds`` have passed, at least MIN_ROUNDS.  With
    ``trace`` every round but the first is traced: in-process through a
    Tracer, in cli-oneshot through the launcher writing one file per request."""
    start = now()
    rounds = []
    while True:
        traced = trace and bool(rounds)
        tracer = None
        if workload.name == "cli-oneshot":
            workload.trace_dir = OUT_DIR / f"cli-seed{seed}-round{len(rounds)}" if traced else None
            if traced:
                shutil.rmtree(workload.trace_dir, ignore_errors=True)
                workload.trace_dir.mkdir(parents=True)
        elif traced:
            tracer = tracing.Tracer()
        began = now()
        r = Round(workload, seed, tracer)
        r.traced, r.trace_dir = traced, getattr(workload, "trace_dir", None)
        r.verify(workload, rounds[0] if rounds else None)
        rounds.append(r)
        if len(rounds) >= MIN_ROUNDS and (now() - start + now() - began) / 1e9 > seconds:
            return rounds


def outcome(workload, rounds):
    attempted = failed = 0
    unexpected, known = [], 0
    for r in rounds:
        for number, (spec, problem) in enumerate(zip(r.specs, r.problems)):
            attempted += 1
            if problem is None:
                continue
            failed += 1
            if is_known_defect(workload, spec, r.records[number]):
                known += 1
            else:
                unexpected.append((number, spec["kind"], problem))
    return attempted, failed, known, unexpected


def end_to_end(workload, rounds):
    # Every round sends the same requests, so each request has one latency
    # per round; its fastest one is its cost with the least interference
    # from the rest of the host.  The time metrics are built from these.
    lat = sorted(min(times) for times in zip(*(r.latencies for r in rounds)))
    attempted, failed, _, _ = outcome(workload, rounds)
    usage = resource.getrusage(
        resource.RUSAGE_CHILDREN if workload.name == "cli-oneshot" else resource.RUSAGE_SELF
    )
    values = {
        "setup_s": min(ns for r in rounds for ns in r.setup_ns) / 1e9,
        "wall_s": sum(lat) / 1e9,
        "latency_p50_ms": nearest_rank(lat, 0.50) / 1e6,
        "latency_p95_ms": nearest_rank(lat, 0.95) / 1e6,
        "peak_rss_mib": usage.ru_maxrss / 1024,
        "success_ratio": 1 - failed / attempted,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}, len(lat)


def cli_values(rounds, reference):
    last = rounds[-1]
    codes = [int(rec.split()[1]) if rec.startswith("exit ") else -1 for rec in last.records]
    by_class = {}
    for spec, ns in zip(reference.specs, reference.latencies):
        by_class.setdefault((spec["kind"], spec["expect"]), []).append(ns)
    return {
        "requests": len(codes),
        "exit_0": codes.count(0),
        "exit_2": codes.count(2),
        "exit_3": codes.count(3),
        "exit_other": sum(c not in (0, 2, 3) for c in codes),
        "floor_ms": min(statistics.median(v) for v in by_class.values()) / 1e6,
    }


def cli_summary(trace_dir):
    summaries, spans = [], []
    for path in sorted(Path(trace_dir).glob("request-*.json")):
        with open(path) as f:
            lines = f.read().splitlines()
        summaries.append(json.loads(lines[0])["summary"])
        spans.extend([path.stem] + json.loads(line) for line in lines[1:])
    return tracing.merge(summaries), spans


def per_layer(workload, seed, rounds):
    untraced = rounds[0]
    traced = [r for r in rounds if r.traced]
    summaries = []
    for r in traced:
        if workload.name == "cli-oneshot":
            summary, spans = cli_summary(r.trace_dir)
            shutil.rmtree(r.trace_dir, ignore_errors=True)
        else:
            summary, spans = r.tracer.summary(), r.tracer.spans
        summaries.append((summary, spans))
    self_s = {}
    names = {n for s, _ in summaries for n in s["self_ns"]}
    for name in names:
        self_s[name] = statistics.median(s["self_ns"].get(name, 0) for s, _ in summaries) / 1e9
    last_summary, last_spans = summaries[-1]
    used = [o["precision_used"] for o in traced[-1].observed if "precision_used" in o]
    extra = {
        "precision_used": max(used, default=0.0),
        "overhead_ratio": statistics.median(r.wall_ns for r in traced) / untraced.wall_ns,
    }
    if workload.name == "cli-oneshot":
        extra.update(cli_values(traced, untraced))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"trace-{workload.name}-seed{seed}.jsonl"
    with open(path, "w") as out:
        out.write(json.dumps({"workload": workload.name, "seed": seed, "summary": last_summary}) + "\n")
        for span in last_spans:
            out.write(json.dumps(list(span)) + "\n")
    return tracing.per_layer(last_summary, self_s, extra), path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",),
                        help='one workload, or "all" to run each in turn in its own process')
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / tracing.PACKAGE / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = [
            subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
            ).returncode
            for name in workloads.NAMES
        ]
        return max(codes)
    sys.path.insert(0, str(SRC))
    workload = workloads.make(args.workload, ROOT)

    rounds = run_rounds(workload, args.seed, args.seconds, trace=bool(args.trace))

    attempted, failed, known, unexpected = outcome(workload, rounds)
    first = rounds[0]
    print(f"workload {workload.name}, seed {args.seed}: {len(rounds)} rounds of {len(first.specs)} requests, "
          "closed loop with one caller")
    print("mix " + json.dumps(first.mix, sort_keys=True))
    print(f"digest {workload.name} seed={args.seed} sha256={first.digest()}")
    for number, kind, problem in unexpected[:20]:
        print(f"FAILED request {number} ({kind}): {problem}")
    if known:
        print(f"known contract defects (ROADMAP 5.1, 5.2) counted as failed: {known}")
    print(f"failed_ratio = {failed / attempted:.6f} ({failed} of {attempted})")
    if args.trace:
        metrics, path = per_layer(workload, args.seed, rounds)
        print(f"spans of the last traced round: {path.relative_to(ROOT)}")
    else:
        metrics, samples = end_to_end(workload, rounds)
        print(f"latency samples: {samples}, each a request's fastest of {len(rounds)} rounds "
              f"({samples - math.ceil(0.95 * samples)} beyond p95)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": not unexpected, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
