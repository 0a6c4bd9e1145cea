"""Seed-equivalence and shape tests for the batched release engine.

The contract under test: :func:`repro.worlds.releases.sample_releases`
consumes the RNG stream exactly as ``W`` sequential single-release
calls with a shared generator, so equal seeds give identical releases
edge-for-edge — the property that lets Table 6 run on the batched
kernels while the sequential functions stay the pinned ground truth.
"""

import warnings

import numpy as np
import pytest

from repro.baselines.randomization import (
    addition_probability,
    decode_pair_indices,
    random_perturbation,
    random_sparsification,
    sample_addition_indices,
)
from repro.graphs.generators import erdos_renyi
from repro.graphs.graph import Graph, pair_index
from repro.utils.rng import as_rng
from repro.worlds import releases
from repro.worlds.releases import (
    RELEASE_SCHEMES,
    _merge_sorted_unique,
    sample_releases,
    stream_releases,
)

SEQUENTIAL = {
    "sparsification": random_sparsification,
    "perturbation": random_perturbation,
}


def _sequential_releases(graph, scheme, p, worlds, seed):
    rng = as_rng(seed)
    return [SEQUENTIAL[scheme](graph, p, seed=rng) for _ in range(worlds)]


class TestPrimitives:
    @pytest.mark.parametrize("n", [2, 3, 5, 31, 200])
    def test_decode_inverts_pair_index(self, n):
        idx = np.arange(n * (n - 1) // 2, dtype=np.int64)
        us, vs = decode_pair_indices(idx, n)
        assert (us < vs).all()
        assert us.min() >= 0 and vs.max() < n
        round_trip = [pair_index(int(u), int(v), n) for u, v in zip(us, vs)]
        np.testing.assert_array_equal(round_trip, idx)

    def test_addition_indices_deterministic_and_increasing(self):
        a = sample_addition_indices(as_rng(3), 100_000, 0.002)
        b = sample_addition_indices(as_rng(3), 100_000, 0.002)
        np.testing.assert_array_equal(a, b)
        assert (np.diff(a) > 0).all()
        assert a.min() >= 0 and a.max() < 100_000

    def test_addition_indices_rate(self):
        hits = sample_addition_indices(as_rng(0), 1_000_000, 0.001)
        assert 850 <= len(hits) <= 1150  # ±5 sigma around 1000

    def test_addition_indices_edge_probabilities(self):
        assert len(sample_addition_indices(as_rng(0), 50, 0.0)) == 0
        np.testing.assert_array_equal(
            sample_addition_indices(as_rng(0), 50, 1.0), np.arange(50)
        )
        assert len(sample_addition_indices(as_rng(0), 0, 0.5)) == 0

    def test_addition_indices_subnormal_rate_is_silent(self):
        """A ``p_add`` so small that ``log(1 − p_add)`` is subnormal
        overflows the skip quotient to inf.  The gap cap absorbs it with
        no warning, and the block is still drawn, so every later draw
        on the stream stays where it was."""
        rng = as_rng(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hits = sample_addition_indices(rng, 1000, 1e-310)
        assert len(hits) == 0
        reference = as_rng(0)
        reference.random(32)  # the one 32-uniform block
        assert rng.random() == reference.random()


class TestSeedEquivalence:
    """Hypothesis-style grid over (n, p_edge, p, seed, W) per scheme."""

    GRID = [
        (30, 0.15, 0.3, 0, 6),
        (60, 0.08, 0.64, 1, 5),
        (25, 0.3, 0.04, 7, 8),
        (45, 0.1, 0.9, 11, 4),
    ]

    @pytest.mark.parametrize("scheme", RELEASE_SCHEMES)
    @pytest.mark.parametrize("n,p_edge,p,seed,worlds", GRID)
    def test_batched_matches_sequential(self, scheme, n, p_edge, p, seed, worlds):
        graph = erdos_renyi(n, p_edge, seed=seed)
        batch = sample_releases(graph, scheme, p, worlds, seed=(seed, 99))
        expected = _sequential_releases(graph, scheme, p, worlds, (seed, 99))
        assert batch.num_worlds == worlds
        for w in range(worlds):
            assert batch.world_graph(w) == expected[w], (scheme, w)

    @pytest.mark.parametrize("scheme", RELEASE_SCHEMES)
    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_degenerate_probabilities(self, scheme, p):
        graph = erdos_renyi(40, 0.1, seed=2)
        batch = sample_releases(graph, scheme, p, 3, seed=0)
        expected = _sequential_releases(graph, scheme, p, 3, 0)
        for w in range(3):
            assert batch.world_graph(w) == expected[w]

    @pytest.mark.parametrize("scheme", RELEASE_SCHEMES)
    def test_edgeless_graph(self, scheme):
        graph = Graph(12)
        batch = sample_releases(graph, scheme, 0.5, 4, seed=1)
        for w in range(4):
            assert batch.world_graph(w).num_edges == 0

    def test_dense_graph_addition_rate_clamped(self):
        """p_add = p·|E|/(non-edges) can exceed 1 on dense graphs."""
        graph = Graph.from_edges(
            8, [(i, j) for i in range(8) for j in range(i + 1, 8) if (i + j) % 3]
        )
        assert 0.9 * addition_probability(graph) > 1.0
        batch = sample_releases(graph, "perturbation", 0.9, 4, seed=5)
        expected = _sequential_releases(graph, "perturbation", 0.9, 4, 5)
        for w in range(4):
            assert batch.world_graph(w) == expected[w]

    def test_shared_generator_interleaves(self):
        """Batch draws then sequential draws continue one stream exactly."""
        graph = erdos_renyi(30, 0.2, seed=0)
        rng_a = as_rng(123)
        batch = sample_releases(graph, "perturbation", 0.3, 3, seed=rng_a)
        follow_on = random_perturbation(graph, 0.3, seed=rng_a)
        rng_b = as_rng(123)
        expected = _sequential_releases(graph, "perturbation", 0.3, 3, rng_b)
        for w in range(3):
            assert batch.world_graph(w) == expected[w]
        assert follow_on == random_perturbation(graph, 0.3, seed=rng_b)


class TestBatchShape:
    def test_perturbation_additions_only_original_non_edges(self):
        graph = erdos_renyi(40, 0.15, seed=3)
        batch = sample_releases(graph, "perturbation", 0.5, 6, seed=9)
        original = set(graph.edges())
        for w in range(6):
            added = set(batch.world_graph(w).edges()) - original
            assert all(not graph.has_edge(u, v) for u, v in added)

    def test_sparsification_candidates_are_original_edges(self):
        graph = erdos_renyi(40, 0.15, seed=3)
        batch = sample_releases(graph, "sparsification", 0.5, 6, seed=9)
        assert batch.num_candidate_pairs == graph.num_edges
        for w in range(6):
            assert set(batch.world_graph(w).edges()) <= set(graph.edges())

    def test_zero_worlds(self):
        graph = erdos_renyi(20, 0.2, seed=0)
        for scheme in RELEASE_SCHEMES:
            assert sample_releases(graph, scheme, 0.3, 0, seed=0).num_worlds == 0

    def test_rejects_bad_inputs(self):
        graph = erdos_renyi(20, 0.2, seed=0)
        with pytest.raises(ValueError):
            sample_releases(graph, "bogus", 0.3, 2, seed=0)
        with pytest.raises(ValueError):
            sample_releases(graph, "sparsification", 1.5, 2, seed=0)
        with pytest.raises(ValueError):
            sample_releases(graph, "sparsification", 0.3, -1, seed=0)


class TestSlicing:
    def test_slice_values_match_full_batch(self):
        graph = erdos_renyi(35, 0.2, seed=4)
        batch = sample_releases(graph, "perturbation", 0.4, 9, seed=2)
        sub = batch.slice(3, 7)
        assert sub.num_worlds == 4
        for i, w in enumerate(range(3, 7)):
            assert sub.world_graph(i) == batch.world_graph(w)

    def test_slice_bounds_checked(self):
        graph = erdos_renyi(10, 0.3, seed=0)
        batch = sample_releases(graph, "sparsification", 0.5, 4, seed=0)
        with pytest.raises(IndexError):
            batch.slice(2, 6)
        with pytest.raises(IndexError):
            batch.slice(-1, 2)


class TestStreaming:
    """stream_releases: same releases, bounded chunks, same statistics.

    Small chunks are forced by patching :data:`releases.RELEASE_CHUNK`.
    """

    @pytest.mark.parametrize("scheme", RELEASE_SCHEMES)
    @pytest.mark.parametrize("chunk_size", [1, 3, 5, 100])
    def test_stream_matches_monolithic_releases(
        self, scheme, chunk_size, monkeypatch
    ):
        graph = erdos_renyi(40, 0.15, seed=3)
        worlds = 11
        full = sample_releases(graph, scheme, 0.45, worlds, seed=(3, 5))
        monkeypatch.setattr(releases, "RELEASE_CHUNK", chunk_size)
        chunks = list(stream_releases(graph, scheme, 0.45, worlds, seed=(3, 5)))
        assert sum(c.num_worlds for c in chunks) == worlds
        assert all(c.num_worlds <= chunk_size for c in chunks)
        w = 0
        for chunk in chunks:
            for i in range(chunk.num_worlds):
                assert chunk.world_graph(i) == full.world_graph(w)
                w += 1

    def test_stream_union_is_chunk_local(self, monkeypatch):
        """No chunk's candidate columns cover another chunk's additions —
        the memory bound the streaming mode exists for."""
        graph = erdos_renyi(50, 0.1, seed=1)
        full = sample_releases(graph, "perturbation", 0.9, 12, seed=9)
        monkeypatch.setattr(releases, "RELEASE_CHUNK", 3)
        chunks = list(stream_releases(graph, "perturbation", 0.9, 12, seed=9))
        assert max(c.num_candidate_pairs for c in chunks) < full.num_candidate_pairs

    def test_streaming_statistics_match_materialised(self, monkeypatch):
        """evaluate per stream_releases chunk, concatenated == evaluate
        over the monolithic batch, for every paper statistic."""
        from repro.stats.registry import paper_statistics
        from repro.worlds.estimator import BatchStatisticsEngine

        graph = erdos_renyi(45, 0.12, seed=6)
        stats = paper_statistics(distance_backend="anf", seed=0)
        names = list(stats)
        engine = BatchStatisticsEngine(stats)
        full = sample_releases(graph, "perturbation", 0.6, 10, seed=(6, 1))
        expected = engine.evaluate(full, names)
        monkeypatch.setattr(releases, "RELEASE_CHUNK", 3)
        parts = [
            engine.evaluate(batch, names)
            for batch in stream_releases(graph, "perturbation", 0.6, 10, seed=(6, 1))
        ]
        assert len(parts) == 4
        for name in names:
            streamed = np.concatenate([part[name] for part in parts])
            np.testing.assert_allclose(streamed, expected[name], rtol=0, atol=1e-9)

    def test_stream_empty_and_validation(self):
        graph = erdos_renyi(10, 0.3, seed=0)
        assert list(stream_releases(graph, "sparsification", 0.5, 0, seed=0)) == []
        with pytest.raises(ValueError):
            list(stream_releases(graph, "smoothing", 0.5, 4, seed=0))


class TestMergeSortedUnique:
    def test_matches_numpy_union(self):
        rng = np.random.default_rng(0)
        union = np.empty(0, dtype=np.int64)
        seen = []
        for _ in range(20):
            codes = np.unique(rng.integers(0, 200, size=rng.integers(0, 30)))
            seen.append(codes)
            union = _merge_sorted_unique(union, codes)
            np.testing.assert_array_equal(union, np.unique(np.concatenate(seen)))

    def test_empty_sides(self):
        a = np.array([1, 5, 9], dtype=np.int64)
        empty = np.empty(0, dtype=np.int64)
        np.testing.assert_array_equal(_merge_sorted_unique(empty, a), a)
        np.testing.assert_array_equal(_merge_sorted_unique(a, empty), a)
