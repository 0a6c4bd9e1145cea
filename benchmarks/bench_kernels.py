"""Micro-benchmarks of the computational kernels (multi-round timings).

Unlike the table/figure regenerators (one-shot experiments), these use
pytest-benchmark's statistical timing across rounds, giving the numbers
a maintainer would watch for performance regressions:

* Lemma-1 DP for a hub-sized Poisson binomial;
* full posterior matrix of an obfuscated dblp surrogate;
* one HyperANF run;
* one exact all-sources distance histogram;
* possible-world sampling throughput;
* candidate-set construction + perturbation assignment (Algorithm 2 at
  fixed σ).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.anf.hyperanf import hyperanf
from repro.core.degree_distribution import poisson_binomial_pmf
from repro.core.generate import generate_obfuscation
from repro.core.obfuscation_check import compute_degree_posterior
from repro.core.types import ObfuscationParams
from repro.graphs.datasets import dblp_like
from repro.stats.distance import distance_histogram
from repro.uncertain.sampling import WorldSampler


@pytest.fixture(scope="module")
def small_graph():
    return dblp_like(scale=0.25, seed=0)


@pytest.fixture(scope="module")
def small_uncertain(small_graph):
    params = ObfuscationParams(k=1, eps=0.9, attempts=1)
    return generate_obfuscation(small_graph, 0.05, params, seed=0).uncertain


def test_kernel_poisson_binomial_dp(benchmark):
    rng = np.random.default_rng(0)
    probs = rng.random(300)  # hub-sized support
    result = benchmark(poisson_binomial_pmf, probs)
    assert result.sum() == pytest.approx(1.0)


def test_kernel_posterior_matrix(benchmark, small_graph, small_uncertain):
    width = int(small_graph.degrees().max()) + 2
    post = benchmark(
        compute_degree_posterior, small_uncertain, method="auto", width=width
    )
    assert post.num_vertices == small_graph.num_vertices


def test_kernel_hyperanf(benchmark, small_graph):
    nf = benchmark(hyperanf, small_graph, b=6, seed=0)
    assert nf.converged_at > 0


def test_kernel_exact_distance_histogram(benchmark, small_graph):
    hist = benchmark(distance_histogram, small_graph)
    assert hist.connected_pairs > 0


def test_kernel_world_sampling(benchmark, small_uncertain):
    sampler = WorldSampler(small_uncertain)

    def draw():
        return sampler.sample(seed=0)

    world = benchmark(draw)
    assert world.num_vertices == small_uncertain.num_vertices


def test_kernel_generate_obfuscation(benchmark, small_graph):
    params = ObfuscationParams(k=5, eps=0.3, attempts=1)

    def run():
        return generate_obfuscation(small_graph, 0.05, params, seed=1)

    outcome = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=0)
    assert outcome.attempts_made == 1
