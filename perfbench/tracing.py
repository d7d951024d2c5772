"""Spans around the package's public functions, installed from outside.

``Tracer.install`` replaces every public function of each layer module by a
wrapper, in every module of the package that holds a reference to it, so
calls between modules are caught as well as calls from the benchmark.  A
few methods that carry named metrics are wrapped on their classes:
``TruncatedSeries.__mul__`` is counted only (it runs millions of times), the
path and family enumerations of ``PlanarNetwork`` get spans.

A span is (id, parent id, name, start ns, end ns).  Spans stay in memory
and are written out by ``dump`` when the run ends.  Self time, a span's
duration minus the time its child spans cover, is summed per name as the
spans close.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter

PACKAGE = "schubert_arcs"
LAYERS = ("partitions", "plane_partitions", "series", "networks", "nash", "simplex", "lct", "cli")
SPAN_METHODS = (("networks", "PlanarNetwork", "paths"), ("networks", "PlanarNetwork", "families"))
COUNT_METHODS = (("series", "TruncatedSeries", "__mul__", "series.mul"),
                 ("series", "TruncatedSeries", "__rmul__", "series.mul"))

# spans whose arguments or results feed a metric (see Tracer._observe)
OBSERVED = frozenset(
    ("networks.PlanarNetwork.families", "networks.PlanarNetwork.paths", "nash.compare", "simplex.solve_max")
)
VERDICTS = ("equal", "g24", "plucker", "volume", "weight_exponents", "plateau_chain", "unknown")


def verdict_criterion(shape, relation, witness):
    """Which criterion settled a containment verdict, read from its witness."""
    if witness == "equal plane partitions":
        return "equal"
    if shape == (2, 4):
        return "g24"
    if relation == "unknown":
        return "unknown"
    if witness.startswith("order of"):
        return "plucker"
    if witness.startswith("volume"):
        return "volume"
    if witness.startswith("weight exponents"):
        return "weight_exponents"
    if witness.startswith("chain of"):
        return "plateau_chain"
    return "unknown"


def _bits(value):
    return max(abs(value.numerator).bit_length(), value.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.next_id = 0
        self.calls = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self.maxima = Counter()
        self.family_keys = set()

    # -- wrappers ------------------------------------------------------------

    def _observe(self, name, args, result):
        if name == "networks.PlanarNetwork.families":
            key = (id(args[0]), tuple(args[1]), tuple(args[2]))
            self.counts["networks.families.returned"] += len(result)
            self.counts["networks.families.repeats"] += key in self.family_keys
            self.family_keys.add(key)
        elif name == "networks.PlanarNetwork.paths":
            self.counts["networks.paths.returned"] += len(result)
        elif name == "nash.compare":
            shape = (args[0].shape.k, args[0].shape.n)
            self.counts["nash.verdict." + verdict_criterion(shape, result.relation, result.witness)] += 1
        elif name == "simplex.solve_max":
            lp = args[0]
            self.maxima["simplex.lp_rows_max"] = max(self.maxima["simplex.lp_rows_max"], len(lp.constraints))
            self.maxima["simplex.lp_cols_max"] = max(self.maxima["simplex.lp_cols_max"], lp.n_vars)
            if result.value is not None:
                bits = max([_bits(result.value)] + [_bits(x) for x in result.vertex])
                self.maxima["simplex.solution_bits_max"] = max(self.maxima["simplex.solution_bits_max"], bits)

    def span(self, name, fn):
        materialize = inspect.isgeneratorfunction(fn)
        observed = name in OBSERVED
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            frame = [self.next_id, 0]
            self.next_id += 1
            self.stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = list(result)
            finally:
                end = clock()
                self.stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.self_ns[name] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                self.spans.append((frame[0], parent[0] if parent else None, name, start, end))
            if observed:
                self._observe(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def install(self):
        """Wrap the public functions of every imported layer module."""
        modules = [m for name, m in sys.modules.items() if name == PACKAGE or name.startswith(PACKAGE + ".")]
        replace = {}
        for layer in LAYERS:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is None:
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                replace[id(obj)] = (obj, self.span(f"{layer}.{attr}", obj))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
        for layer, cls_name, method in SPAN_METHODS:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is not None:
                cls = getattr(module, cls_name)
                setattr(cls, method, self.span(f"{layer}.{cls_name}.{method}", getattr(cls, method)))
        for layer, cls_name, method, name in COUNT_METHODS:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is not None:
                cls = getattr(module, cls_name)
                setattr(cls, method, self.counter(name, getattr(cls, method)))

    # -- results -------------------------------------------------------------

    def summary(self):
        return {
            "calls": dict(self.calls),
            "self_ns": dict(self.self_ns),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }

    def dump(self, path):
        """Write the summary and every span as JSON lines."""
        with open(path, "w") as out:
            out.write(json.dumps({"summary": self.summary()}) + "\n")
            for span_id, parent, name, start, end in self.spans:
                out.write(json.dumps([span_id, parent, name, start, end]) + "\n")


def merge(summaries):
    """Sum the summaries of several traced processes (maxima take the max)."""
    total = {"calls": Counter(), "self_ns": Counter(), "counts": Counter(), "maxima": Counter()}
    for s in summaries:
        for key in ("calls", "self_ns", "counts"):
            total[key].update(s[key])
        for name, value in s["maxima"].items():
            total["maxima"][name] = max(total["maxima"][name], value)
    return total


# Per-layer metric -> (unit, better).  The names are listed in BENCHMARK.json
# in this order.
def _self(*names):
    return ("self", names)


def _calls(*names):
    return ("calls", names)


METRICS = {
    "series.det.calls": (_calls("series.series_det"), "count", "lower"),
    "series.mul.calls": (("counts", ("series.mul",)), "count", "lower"),
    "series.profile.self_s": (_self("series.invariant_factor_profile"), "s", "lower"),
    "series.det.self_s": (_self("series.series_det"), "s", "lower"),
    "series.borel.calls": (_calls("series.borel_translate"), "count", "lower"),
    "series.borel.self_s": (_self("series.borel_translate"), "s", "lower"),
    "series.parse.self_s": (_self("series.parse_series", "series.parse_arc_matrix"), "s", "lower"),
    "series.precision_used_ratio": (("output", "precision_used"), "ratio", "higher"),
    "networks.families.calls": (_calls("networks.PlanarNetwork.families"), "count", "lower"),
    "networks.families.returned": (("counts", ("networks.families.returned",)), "count", "lower"),
    "networks.families.repeat_ratio": (("ratio", ("networks.families.repeats", "networks.PlanarNetwork.families")), "ratio", "higher"),
    "networks.paths.returned": (("counts", ("networks.paths.returned",)), "count", "lower"),
    "networks.tropical.calls": (_calls("networks.tropical_minor_order"), "count", "lower"),
    "networks.tropical.self_s": (_self("networks.tropical_minor_order"), "s", "lower"),
    "networks.plucker_ord.calls": (_calls("networks.plucker_ord"), "count", "lower"),
    "networks.generic_arc.self_s": (_self("networks.generic_arc"), "s", "lower"),
    "networks.weight_matrix.self_s": (_self("networks.weight_matrix"), "s", "lower"),
    "nash.compare.calls": (_calls("nash.compare"), "count", "lower"),
    "nash.compare.self_s": (_self("nash.compare"), "s", "lower"),
    "nash.discrepancy.calls": (_calls("nash.discrepancy_data"), "count", "lower"),
    "nash.discrepancy.self_s": (_self("nash.discrepancy_data"), "s", "lower"),
    **{f"nash.verdict.{v}": (("counts", (f"nash.verdict.{v}",)), "count", "lower" if v == "unknown" else "higher") for v in VERDICTS},
    "nash.unknown_ratio": (("ratio", ("nash.verdict.unknown", "nash.compare")), "ratio", "lower"),
    "plane_partitions.weight_exponents.calls": (_calls("plane_partitions.weight_exponents"), "count", "lower"),
    "plane_partitions.weight_exponents.self_s": (_self("plane_partitions.weight_exponents"), "s", "lower"),
    "plane_partitions.plateaux.self_s": (_self("plane_partitions.plateaux"), "s", "lower"),
    "partitions.all_partitions.self_s": (_self("partitions.all_partitions"), "s", "lower"),
    "simplex.solve.calls": (_calls("simplex.solve_max"), "count", "lower"),
    "simplex.solve.self_s": (_self("simplex.solve_max"), "s", "lower"),
    "simplex.lp_rows_max": (("maxima", ("simplex.lp_rows_max",)), "count", "lower"),
    "simplex.lp_cols_max": (("maxima", ("simplex.lp_cols_max",)), "count", "lower"),
    "simplex.solution_bits_max": (("maxima", ("simplex.solution_bits_max",)), "bits", "lower"),
    "lct.build_lp.self_s": (_self("lct.build_lp"), "s", "lower"),
    "lct.witness.self_s": (_self("lct.arnold_witness", "lct.integer_witness"), "s", "lower"),
    "cli.requests": (("cli", "requests"), "count", "higher"),
    "cli.exit_0": (("cli", "exit_0"), "count", "higher"),
    "cli.exit_2": (("cli", "exit_2"), "count", "higher"),
    "cli.exit_3": (("cli", "exit_3"), "count", "higher"),
    "cli.exit_other": (("cli", "exit_other"), "count", "lower"),
    "cli.floor_ms": (("cli", "floor_ms"), "ms", "lower"),
    "trace.overhead_ratio": (("run", "overhead_ratio"), "ratio", "lower"),
}


def per_layer(summary, self_s, extra):
    """Every per-layer metric from one round's merged summary, the median
    self seconds per span name over the traced rounds, and the values the
    run measured itself (``extra``: output-derived, cli and run values)."""
    out = {}
    for metric, (source, unit, _) in METRICS.items():
        kind, names = source
        if kind == "calls":
            value = sum(summary["calls"].get(n, 0) for n in names)
        elif kind == "self":
            value = sum(self_s.get(n, 0.0) for n in names)
        elif kind == "counts":
            value = sum(summary["counts"].get(n, 0) for n in names)
        elif kind == "maxima":
            value = summary["maxima"].get(names[0], 0)
        elif kind == "ratio":
            num, den = names
            top = summary["counts"].get(num, 0)
            bottom = summary["calls"].get(den, 0)
            value = top / bottom if bottom else 0.0
        else:
            value = extra.get(names, 0)
        out[metric] = {"value": value, "unit": unit}
    return out
