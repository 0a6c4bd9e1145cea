"""Algorithm-1 search on the dblp surrogate: oracle equivalence and fold coverage.

``test_obfuscation_search_equivalence`` runs every cell of a Table-2
style ``obfuscate`` grid twice — on the library and on the per-draw
sequential oracle of ``tests/oracles/generate.py`` — and requires the
*identical* search trace, σ, draw count and released graph at every
cell (it is the CI search smoke job).

The grid mirrors the experiment harness: the paper's k ∈ {20, 60, 100}
and ε ∈ {1e-3, 1e-4}, with ε rescaled by ``scaled_eps`` to preserve the
tolerated-vertex *count* on the smaller surrogate (the harness's one
documented adaptation), plus one unscaled ε = 1e-4 cell whose doubling
phase fails at every σ.

``test_pair_keyed_fold_coverage`` pins the structural claim of the
probe: because every pair's perturbation is keyed by the pair, the
base/fold posterior (one cached edge-DP per probe, each attempt's
additions folded in, all attempts evaluated in one stacked pass) serves
most posterior rows without a recompute.

The search's speed is measured by ``perfbench`` (workload
``table2-search``), not here.

Environment knobs:

``REPRO_BENCH_SEARCH_SCALE``     surrogate size (default 0.45 → n ≈ 2k;
                                 CI smoke uses 0.1)
``REPRO_BENCH_SEARCH_ATTEMPTS``  Algorithm-2 attempts per σ (default 3,
                                 the harness setting)

Run from the repo root (the oracle is imported as ``tests.oracles``)::

    PYTHONPATH=src python -m pytest benchmarks/bench_obfuscation_search.py -s
"""

from __future__ import annotations

import functools
import math
import os

import pytest

from repro.core.search import obfuscate
from repro.experiments.config import scaled_eps
from repro.graphs.datasets import dblp_like

from tests.oracles.generate import run_sequential

SEARCH_SCALE = float(os.environ.get("REPRO_BENCH_SEARCH_SCALE", 0.45))
SEARCH_ATTEMPTS = int(os.environ.get("REPRO_BENCH_SEARCH_ATTEMPTS", 3))
SEED = 0
DELTA = 1e-3

#: The paper's Table-2 privacy grid (ε values are paper values,
#: rescaled per run by :func:`repro.experiments.config.scaled_eps`).
K_VALUES = (20, 60, 100)
PAPER_EPS_VALUES = (1e-3, 1e-4)


@pytest.fixture(scope="module")
def graph():
    """The dblp surrogate (n ≈ 2000 at the default scale)."""
    return dblp_like(scale=SEARCH_SCALE, seed=SEED)


def _grid(graph):
    n = graph.num_vertices
    return [
        (k, paper_eps, scaled_eps(paper_eps, "dblp", n))
        for k in K_VALUES
        for paper_eps in PAPER_EPS_VALUES
    ]


def _run(graph, k, eps, search=obfuscate):
    return search(
        graph, k=k, eps=eps, seed=SEED, attempts=SEARCH_ATTEMPTS, delta=DELTA
    )


def _assert_identical(array_result, seq_result):
    assert [
        (s.sigma, s.eps_achieved, s.phase) for s in array_result.trace
    ] == [(s.sigma, s.eps_achieved, s.phase) for s in seq_result.trace]
    assert array_result.eps_achieved == seq_result.eps_achieved
    assert array_result.edges_processed == seq_result.edges_processed
    if math.isnan(array_result.sigma):
        assert math.isnan(seq_result.sigma)
    else:
        assert array_result.sigma == seq_result.sigma
    if array_result.success:
        assert sorted(array_result.uncertain.candidate_pairs()) == sorted(
            seq_result.uncertain.candidate_pairs()
        )


def test_obfuscation_search_equivalence(graph):
    """Same seed ⇒ same trace, same σ, same release as the oracle."""
    # The unscaled (hard) cell exercises the all-failures doubling path.
    cells = [(k, eps) for k, _, eps in _grid(graph)] + [(60, 1e-4)]
    sequential = functools.partial(run_sequential, obfuscate)
    for k, eps in cells:
        _assert_identical(
            _run(graph, k, eps), _run(graph, k, eps, search=sequential)
        )


def test_pair_keyed_fold_coverage(graph):
    """The base/fold path serves most posterior rows across the grid.

    ≥80% of rows at the documented scale, ≥60% on the tiny CI smoke
    surrogate, where hub rows (CLT, always recomputed) are a larger
    fraction.  Every successful cell's release meets its tolerance.
    """
    folded = recomputed = 0
    for k, paper_eps, eps in _grid(graph):
        result = _run(graph, k, eps)
        if result.success:
            assert result.eps_achieved <= eps, (k, paper_eps)
        folded += result.rows_folded
        recomputed += result.rows_recomputed
    coverage = folded / max(folded + recomputed, 1)
    floor = 0.8 if SEARCH_SCALE >= 0.4 else 0.6
    assert coverage >= floor, f"fold coverage {coverage:.3f} < {floor}"
