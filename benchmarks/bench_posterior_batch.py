"""Batched vs scalar posterior engine on a dblp-like surrogate.

The headline perf claim of the batched Poisson-binomial engine
(:mod:`repro.core.posterior_batch`): computing the full ``X_v(ω)``
matrix of an obfuscated dblp surrogate (n ≈ 2k) must be ≥5× faster than
the scalar per-vertex loop it replaced (now the reference in
``tests/oracles/posterior.py``), while agreeing to 1e-12.  Compare the
two ``test_posterior_*`` rows of the benchmark table; the equivalence
assertion runs inline on every invocation.

Run from the repo root (the oracle is imported as ``tests.oracles``)::

    PYTHONPATH=src python -m pytest benchmarks/bench_posterior_batch.py

``REPRO_BENCH_POSTERIOR_SCALE`` overrides the surrogate size (default
0.45 ≈ 2000 vertices; CI smoke-runs at 0.1).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.generate import generate_obfuscation
from repro.core.obfuscation_check import compute_degree_posterior
from repro.core.types import ObfuscationParams
from repro.graphs.datasets import dblp_like

from tests.oracles.posterior import compute_degree_posterior_scalar


@pytest.fixture(scope="module")
def surrogate():
    # scale=0.45 puts the surrogate at n ≈ 2000, m ≈ 6000.
    scale = float(os.environ.get("REPRO_BENCH_POSTERIOR_SCALE", 0.45))
    graph = dblp_like(scale=scale, seed=0)
    params = ObfuscationParams(k=1, eps=0.9, attempts=1)
    uncertain = generate_obfuscation(graph, 0.05, params, seed=0).uncertain
    width = int(graph.degrees().max()) + 2
    return graph, uncertain, width


def test_posterior_batched(benchmark, surrogate):
    _, uncertain, width = surrogate
    uncertain.incident_probability_csr()  # steady-state: CSR cached
    post = benchmark(
        compute_degree_posterior, uncertain, method="auto", width=width
    )
    assert post.num_vertices == uncertain.num_vertices


def test_posterior_scalar_baseline(benchmark, surrogate):
    _, uncertain, width = surrogate
    post = benchmark.pedantic(
        compute_degree_posterior_scalar,
        args=(uncertain,),
        kwargs={"method": "auto", "width": width},
        rounds=3,
        iterations=1,
        warmup_rounds=0,
    )
    assert post.num_vertices == uncertain.num_vertices


def test_batched_matches_scalar_on_surrogate(surrogate):
    _, uncertain, width = surrogate
    batched = compute_degree_posterior(uncertain, method="auto", width=width)
    scalar = compute_degree_posterior_scalar(
        uncertain, method="auto", width=width
    )
    np.testing.assert_allclose(
        batched.matrix, scalar.matrix, atol=1e-12, rtol=0
    )


def test_posterior_cold_cache(benchmark, surrogate):
    """Engine cost including the CSR export (first call on a fresh graph)."""
    _, uncertain, width = surrogate
    us, vs, ps = uncertain.pair_arrays()

    def cold():
        from repro.uncertain.graph import UncertainGraph

        fresh = UncertainGraph.from_arrays(
            uncertain.num_vertices, us, vs, ps, keep_zero=True
        )
        return compute_degree_posterior(fresh, method="auto", width=width)

    post = benchmark(cold)
    assert post.num_vertices == uncertain.num_vertices
