"""The >>> examples in the docstrings of every schubert_arcs submodule."""

import doctest
import importlib
import pkgutil

import schubert_arcs

# examples each module is known to hold; a module missing here holds none
EXAMPLES = {"plane_partitions": 3, "series": 1}


def test_source_doctests_pass():
    names = sorted(m.name for m in pkgutil.iter_modules(schubert_arcs.__path__))
    assert set(EXAMPLES) <= set(names)
    for name in names:
        module = importlib.import_module(f"schubert_arcs.{name}")
        failed, attempted = doctest.testmod(module)
        assert failed == 0, name
        assert attempted >= EXAMPLES.get(name, 0), (name, attempted)
