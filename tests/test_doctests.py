"""Execute the doctest examples embedded in public docstrings.

Keeps the README-style snippets in module documentation honest: if an
API signature drifts, the corresponding docstring example fails here.
"""

import doctest

import pytest

import repro.core.search
import repro.graphs.graph
import repro.stats.sampling
import repro.uncertain.sampling
import repro.worlds.estimator

MODULES = [
    repro.graphs.graph,
    repro.uncertain.sampling,
    repro.core.search,
    repro.stats.sampling,
    repro.worlds.estimator,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module.__name__} lost its doctest examples"
    assert results.failed == 0
