"""Counter coherence: result fields == registry totals on a seeded run.

The refactor that moved run accounting into :mod:`repro.obs` keeps the
``ObfuscationResult``/``GenerationOutcome`` fields as the per-call API
while the registry holds the process totals.  These tests pin the
contract that the two never drift: after ``reset_metrics()`` the
registry totals of one seeded run must equal the fields of the result
it produced.  The sequential oracle of ``tests/oracles/generate.py``
feeds the same registry counters, so a search run on it must draw
exactly the pairs the library's search draws.
"""

from __future__ import annotations

import functools

import pytest

from repro.core.generate import generate_obfuscation
from repro.core.search import obfuscate
from repro.core.types import ObfuscationParams
from repro.graphs.generators import erdos_renyi
from repro.obs.metrics import REGISTRY, reset_metrics
from tests.oracles.generate import run_sequential


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(60, 0.15, seed=1)


def test_obfuscate_counters_match_registry(graph):
    reset_metrics()
    result = obfuscate(graph, k=3, eps=0.2, seed=7, attempts=2, delta=0.05)
    assert result.success

    assert REGISTRY.get("search.runs") == 1
    assert REGISTRY.get("search.probes") == len(result.trace)
    assert REGISTRY.get("generate.pairs_drawn") == result.edges_processed
    assert REGISTRY.get("generate.rows_folded") == result.rows_folded
    assert REGISTRY.get("generate.rows_recomputed") == result.rows_recomputed

    folded = REGISTRY.get("generate.rows_folded")
    recomputed = REGISTRY.get("generate.rows_recomputed")
    if folded + recomputed:
        assert result.fold_fraction == pytest.approx(
            folded / (folded + recomputed)
        )
    else:
        assert result.fold_fraction == 0.0

    # one generate.calls per probe, and the winning probes were counted
    assert REGISTRY.get("generate.calls") == len(result.trace)
    assert 0 < REGISTRY.get("generate.winners") <= len(result.trace)


def test_generate_outcome_matches_registry_delta(graph):
    """One Algorithm-2 call adds exactly its outcome fields to the registry."""
    params = ObfuscationParams(k=3, eps=0.2, attempts=3)
    reset_metrics()
    before = {
        "pairs": REGISTRY.get("generate.pairs_drawn"),
        "attempts": REGISTRY.get("generate.attempts_made"),
        "folded": REGISTRY.get("generate.rows_folded"),
        "recomputed": REGISTRY.get("generate.rows_recomputed"),
    }
    outcome = generate_obfuscation(graph, 0.5, params, seed=11)
    assert REGISTRY.get("generate.pairs_drawn") - before["pairs"] == (
        outcome.pairs_drawn
    )
    assert REGISTRY.get("generate.attempts_made") - before["attempts"] == (
        outcome.attempts_made
    )
    assert REGISTRY.get("generate.rows_folded") - before["folded"] == (
        outcome.rows_folded
    )
    assert REGISTRY.get("generate.rows_recomputed") - before["recomputed"] == (
        outcome.rows_recomputed
    )
    assert REGISTRY.get("generate.calls") == 1


def test_engines_agree_on_pairs_drawn(graph):
    """The library and the seed-equivalent oracle consume identical
    candidate-pair draws."""
    totals = []
    for search in (obfuscate, functools.partial(run_sequential, obfuscate)):
        reset_metrics()
        result = search(graph, k=3, eps=0.2, seed=7, attempts=2, delta=0.05)
        assert result.success
        totals.append(
            (REGISTRY.get("search.probes"), REGISTRY.get("generate.pairs_drawn"))
        )
    assert totals[0] == totals[1]
