"""Arc-space invariants of Schubert varieties in the Grassmannian.

Exact combinatorial and power-series computations: contact profiles of arcs,
plane-partition strata and their containment tests, log canonical thresholds
via exact rational linear programming, and the planar networks that
parametrize generic arcs.

Submodules load on first use (PEP 562): reading one of a submodule's public
names imports it and binds all of its names here, so a caller pays only for
the layers it touches.
"""

from importlib import import_module as _import_module

# Bound now because the function shares its name with its submodule: left
# to __getattr__, the attribute would be the submodule whenever that was
# imported first.
from .lct import lct

__version__ = "0.1.0"

# The public names, by the submodule that defines them.
_EXPORTS = {
    "partitions": (
        "GrassmannShape", "Partition", "all_partitions", "outside_corners",
        "schubert_conditions", "singular_components",
    ),
    "plane_partitions": (
        "INF", "ExtNat", "Infinity", "InvalidPlanePartition", "PlanePartition",
        "PrecisionExceeded", "all_plane_partitions", "essential_profile", "floors",
        "from_essential", "from_floors", "home_center", "ord_schubert", "plateaux",
        "weight_exponents",
    ),
    "series": (
        "NotAnArc", "NotInBigCell", "SeriesMatrix", "TruncatedSeries",
        "borel_translate", "invariant_factor_profile",
    ),
    "networks": (
        "PlanarNetwork", "essential_weighting", "gamma0", "generic_arc", "plucker_ord",
        "tropical_minor_order", "weight_matrix",
    ),
    "nash": (
        "ContainmentVerdict", "codim_chain", "compare", "discrepancy_data",
        "nash_valuations", "sufficient_by_weight_exponents",
    ),
    "simplex": ("LPSolution", "RationalLP", "solve_max"),
    "lct": ("arnold_multiplicity", "arnold_witness", "build_lp", "integer_witness", "lct"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    for module_name, names in _EXPORTS.items():
        if name in names:
            module = _import_module(f".{module_name}", __name__)
            globals().update((n, getattr(module, n)) for n in names)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
