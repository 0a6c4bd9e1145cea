"""Seed-equivalence of the array-native candidate builder (PR 4).

The vectorised builder consumes the *same* RNG stream as the per-draw
Python loop of ``tests/oracles/generate.py``, so at any fixed RNG state
both must produce bit-identical candidate sets, identical draw counts,
and leave the generator in the same state.  These tests pin that
contract — the foundation of the "same seed ⇒ same obfuscation"
guarantee.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.generate import (
    CandidateStallError,
    SearchContext,
    WeightedVertexSampler,
    _build_candidate_codes,
    _merge_sorted_disjoint,
    _sorted_contains,
)
from repro.graphs.datasets import paper_scale_dataset
from repro.graphs.generators import erdos_renyi, powerlaw_cluster
from repro.graphs.graph import Graph
from tests.oracles.generate import build_candidate_set


def _uniform_probs(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


def _skewed_probs(n: int, seed: int, zero_fraction: float = 0.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    w = rng.random(n) ** 3
    if zero_fraction:
        w[rng.random(n) < zero_fraction] = 0.0
        if not w.any():
            w[0] = 1.0
    return w / w.sum()


class TestWeightedVertexSampler:
    """The table-accelerated sampler must replicate ``rng.choice`` exactly."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [2, 17, 500, 2500])
    def test_bit_identical_to_choice(self, n, seed):
        probs = _skewed_probs(n, seed)
        sampler = WeightedVertexSampler(probs)
        r_choice = np.random.default_rng(seed)
        r_sampler = np.random.default_rng(seed)
        expected = r_choice.choice(n, size=4096, p=probs, replace=True)
        got = sampler.sample(r_sampler, 4096)
        np.testing.assert_array_equal(got, expected)
        # ...and the generators end in the same state, so downstream
        # draws (perturbations, white noise) stay aligned.
        assert r_choice.bit_generator.state == r_sampler.bit_generator.state

    def test_zero_probability_runs(self):
        """Long runs of excluded (zero-weight) vertices are never drawn
        and do not break the tie-jump refinement."""
        probs = _skewed_probs(800, 7, zero_fraction=0.6)
        sampler = WeightedVertexSampler(probs)
        r_choice = np.random.default_rng(3)
        r_sampler = np.random.default_rng(3)
        expected = r_choice.choice(800, size=8192, p=probs, replace=True)
        got = sampler.sample(r_sampler, 8192)
        np.testing.assert_array_equal(got, expected)
        assert not np.isin(got, np.flatnonzero(probs == 0.0)).any()

    def test_mass_concentration(self):
        """A single vertex holding almost all mass (σ → 0 uniqueness)."""
        w = np.full(300, 1e-9)
        w[123] = 1.0
        probs = w / w.sum()
        sampler = WeightedVertexSampler(probs)
        r_choice = np.random.default_rng(5)
        r_sampler = np.random.default_rng(5)
        np.testing.assert_array_equal(
            sampler.sample(r_sampler, 4096),
            r_choice.choice(300, size=4096, p=probs, replace=True),
        )


@pytest.fixture(scope="module")
def search_scale_context() -> SearchContext:
    """The σ search's context at n = 45,283, where Q ∝ uniqueness packs
    dozens of distinct CDF values into one lookup-table cell."""
    graph = paper_scale_dataset("dblp", scale=0.2, seed=0)
    return SearchContext(graph, eps=1e-3)


class TestWeightedVertexSamplerSearchScale:
    """The refinement loop at the size the σ search runs it."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("sigma", [1e-3, 1.0])
    def test_bit_identical_to_choice(self, search_scale_context, sigma, seed):
        probs = search_scale_context.sigma_setup(sigma).q_probs
        # H supplies runs of zero-probability (tied) CDF values.
        assert (probs == 0.0).any()
        cdf = np.cumsum(probs)
        cdf /= cdf[-1]
        cells = np.ceil(np.unique(cdf) * (1 << WeightedVertexSampler._TABLE_BITS))
        assert np.bincount(cells.astype(np.int64)).max() >= 40
        size = 2 * 8 * 8192  # the largest batch a candidate build draws
        r_choice = np.random.default_rng(seed)
        r_sampler = np.random.default_rng(seed)
        expected = r_choice.choice(len(probs), size=size, p=probs, replace=True)
        got = WeightedVertexSampler(probs).sample(r_sampler, size)
        np.testing.assert_array_equal(got, expected)
        assert r_choice.bit_generator.state == r_sampler.bit_generator.state


class TestSortedSetHelpers:
    def test_merge_sorted_disjoint(self, rng):
        a = np.unique(rng.integers(0, 10_000, 500))
        universe = np.setdiff1d(np.arange(10_000), a)
        b = np.sort(rng.choice(universe, 300, replace=False))
        merged = _merge_sorted_disjoint(a, b)
        np.testing.assert_array_equal(merged, np.union1d(a, b))

    def test_merge_empty_sides(self):
        a = np.array([1, 5, 9])
        empty = np.empty(0, dtype=np.int64)
        np.testing.assert_array_equal(_merge_sorted_disjoint(a, empty), a)
        np.testing.assert_array_equal(_merge_sorted_disjoint(empty, a), a)

    def test_sorted_contains(self, rng):
        hay = np.unique(rng.integers(0, 1000, 200))
        needles = rng.integers(0, 1000, 500)
        np.testing.assert_array_equal(
            _sorted_contains(hay, needles), np.isin(needles, hay)
        )
        assert not _sorted_contains(np.empty(0, dtype=np.int64), needles).any()


def _as_code_set(candidate: set[tuple[int, int]], n: int) -> np.ndarray:
    return np.sort(np.array([u * n + v for u, v in candidate], dtype=np.int64))


class TestBuilderEquivalence:
    """Sequential vs vectorised builder: bit-identical pair sets."""

    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("c", [1.0, 1.5, 2.0, 3.0])
    def test_same_candidate_set_er(self, seed, c):
        graph = erdos_renyi(120, 0.08, seed=seed)
        self._check(graph, c, seed, _uniform_probs(120))

    @pytest.mark.parametrize("seed", [1, 4])
    def test_same_candidate_set_powerlaw_skewed_q(self, seed):
        graph = powerlaw_cluster(150, 3, 0.3, seed=seed)
        probs = _skewed_probs(150, seed, zero_fraction=0.2)
        self._check(graph, 2.0, seed, probs)

    def _check(self, graph: Graph, c: float, seed: int, probs: np.ndarray):
        n, m = graph.num_vertices, graph.num_edges
        target = int(round(c * m))
        sampler = WeightedVertexSampler(probs)
        rng_seq = np.random.default_rng(seed)
        rng_vec = np.random.default_rng(seed)
        candidate, draws_seq = build_candidate_set(
            n, set(graph.edges()), target, probs, rng_seq
        )
        codes, is_edge, removed, draws_vec = _build_candidate_codes(
            n, graph.edge_codes(), target, sampler, rng_vec
        )
        assert draws_seq == draws_vec
        assert rng_seq.bit_generator.state == rng_vec.bit_generator.state
        assert len(codes) == target
        np.testing.assert_array_equal(codes, _as_code_set(candidate, n))
        # the membership mask must agree with the original edge set
        np.testing.assert_array_equal(
            is_edge, np.isin(codes, graph.edge_codes())
        )
        # the removed list is exactly the edges missing from the candidates
        np.testing.assert_array_equal(
            removed, np.setdiff1d(graph.edge_codes(), codes)
        )

    def test_c_equal_one_draws_nothing(self, star5):
        """target == |E|: both builders return E without consuming RNG."""
        probs = _uniform_probs(5)
        rng_a = np.random.default_rng(0)
        rng_b = np.random.default_rng(0)
        candidate, d1 = build_candidate_set(5, set(star5.edges()), 4, probs, rng_a)
        codes, is_edge, removed, d2 = _build_candidate_codes(
            5, star5.edge_codes(), 4, WeightedVertexSampler(probs), rng_b
        )
        assert d1 == d2 == 0
        assert candidate == set(star5.edges())
        np.testing.assert_array_equal(codes, star5.edge_codes())
        assert is_edge.all()
        assert len(removed) == 0

    def test_stall_raises_identically(self, star5):
        """Absorbing targets stall both builders at the same draw count."""
        probs = _uniform_probs(5)
        target = 3 * star5.num_edges  # K5 has only 10 pairs; unreachable
        rng_a = np.random.default_rng(2)
        rng_b = np.random.default_rng(2)
        with pytest.raises(CandidateStallError) as seq_err:
            build_candidate_set(5, set(star5.edges()), target, probs, rng_a)
        with pytest.raises(CandidateStallError) as vec_err:
            _build_candidate_codes(
                5, star5.edge_codes(), target, WeightedVertexSampler(probs), rng_b
            )
        assert seq_err.value.pairs_drawn == vec_err.value.pairs_drawn > 0
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
