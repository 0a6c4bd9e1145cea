"""Batched degree/triangle kernels vs the sequential statistic callables.

Triangle counts and S_CC are pinned against the edge-iterator oracle in
``tests/oracles/triangles.py``: the library's own ``triangle_count`` runs
on the same forward kernel as the batch, so comparing with it would
compare the kernel with itself.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphs.generators import barabasi_albert
from repro.graphs.triangles import WEDGE_BLOCK
from repro.obs.metrics import REGISTRY
from repro.stats.degree import (
    average_degree,
    degree_variance,
    max_degree,
    num_edges,
    powerlaw_exponent,
)
from repro.uncertain.graph import UncertainGraph
from repro.worlds import (
    WorldBatch,
    clustering_coefficients_batch,
    degree_matrix,
    degree_statistics_batch,
    triangle_counts_batch,
)
from repro.worlds.releases import sample_releases, stream_releases

from tests.oracles.triangles import clustering_coefficient, triangle_count
from tests.worlds.conftest import random_uncertain

SEQUENTIAL = {
    "S_NE": num_edges,
    "S_AD": average_degree,
    "S_MD": max_degree,
    "S_DV": degree_variance,
    "S_PL": powerlaw_exponent,
}


@pytest.fixture
def batch(denser_uncertain):
    return WorldBatch.sample(denser_uncertain, 12, seed=5)


class TestDegreeMatrix:
    def test_matches_per_world_degrees(self, batch):
        degrees = degree_matrix(batch)
        for w, g in enumerate(batch.graphs()):
            np.testing.assert_array_equal(degrees[w], g.degrees())

    def test_empty_batch(self, denser_uncertain):
        batch = WorldBatch.sample(denser_uncertain, 0, seed=0)
        assert degree_matrix(batch).shape == (0, denser_uncertain.num_vertices)


class TestDegreeFamily:
    def test_matches_registry_callables(self, batch):
        """Satellite acceptance: batched values ≤1e-9 from the callables."""
        out = degree_statistics_batch(batch)
        for name, func in SEQUENTIAL.items():
            expected = [float(func(g)) for g in batch.graphs()]
            np.testing.assert_allclose(
                out[name], expected, atol=1e-9, rtol=0, err_msg=name
            )

    def test_powerlaw_d_min_rejected(self, batch):
        """The tail cut is fixed at the registry's default, not an option."""
        with pytest.raises(TypeError):
            degree_statistics_batch(batch, powerlaw_d_min=3)

    def test_no_edges(self):
        ug = UncertainGraph(5)
        batch = WorldBatch.sample(ug, 3, seed=0)
        out = degree_statistics_batch(batch)
        for name in SEQUENTIAL:
            np.testing.assert_array_equal(out[name], np.zeros(3))


class TestTriangles:
    def test_matches_sequential_counter(self, batch):
        counts = triangle_counts_batch(batch)
        expected = [triangle_count(g) for g in batch.graphs()]
        np.testing.assert_array_equal(counts, expected)

    def test_chunking_invariant(self, batch):
        """A pathologically small wedge budget must not change counts."""
        full = triangle_counts_batch(batch)
        tiny = triangle_counts_batch(batch, wedge_budget=17)
        np.testing.assert_array_equal(full, tiny)

    def test_triangle_free(self):
        ug = UncertainGraph.from_pairs(4, [(0, 1, 1.0), (2, 3, 1.0)])
        batch = WorldBatch.sample(ug, 2, seed=0)
        np.testing.assert_array_equal(triangle_counts_batch(batch), [0, 0])

    def test_certain_triangle(self):
        ug = UncertainGraph.from_pairs(
            3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]
        )
        batch = WorldBatch.sample(ug, 3, seed=0)
        np.testing.assert_array_equal(triangle_counts_batch(batch), [1, 1, 1])


def _counts_and_choice(batch, **kwargs):
    """Per-world triangle counts, plus the worlds the lane rule counted
    in a shared union enumeration and alone."""
    names = ("worlds.triangles.sliced", "worlds.triangles.alone")
    before = [REGISTRY.get(name) for name in names]
    counts = triangle_counts_batch(batch, **kwargs)
    sliced, alone = (REGISTRY.get(name) - was for name, was in zip(names, before))
    return counts, sliced, alone


def _oracle_counts(batch):
    return [triangle_count(g) for g in batch.graphs()]


#: World counts on both sides of the 64-world lane word.
LANE_WORLDS = st.sampled_from([1, 63, 64, 65, 130])
PROPERTY = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestTriangleKernelProperties:
    """``triangle_counts_batch`` against the oracle, world by world."""

    @PROPERTY
    @given(
        worlds=LANE_WORLDS,
        n=st.integers(min_value=3, max_value=14),
        fill=st.floats(min_value=0.0, max_value=1.0),
        density=st.floats(min_value=0.0, max_value=1.0),
        budget=st.sampled_from([1, 3, WEDGE_BLOCK]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_random_keep_matrix(self, worlds, n, fill, density, budget, seed):
        rng = np.random.default_rng(seed)
        us, vs = np.triu_indices(n, k=1)
        chosen = rng.random(len(us)) < fill
        keep = rng.random((worlds, int(chosen.sum()))) < density
        keep[rng.random(worlds) < 0.2] = False  # worlds that keep no pair
        batch = WorldBatch.from_keep_matrix(n, us[chosen], vs[chosen], keep)
        counts, sliced, alone = _counts_and_choice(batch, wedge_budget=budget)
        np.testing.assert_array_equal(counts, _oracle_counts(batch))
        # every world of a lane slice that keeps some pair is counted once
        slices = [keep[lo : lo + 64] for lo in range(0, worlds, 64)]
        assert sliced + alone == sum(len(rows) for rows in slices if rows.any())

    @PROPERTY
    @given(
        worlds=LANE_WORLDS,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        budget=st.sampled_from([1, WEDGE_BLOCK]),
    )
    def test_worlds_of_one_uncertain_graph(self, worlds, seed, budget):
        uncertain = random_uncertain(30, 180, seed=11)
        batch = WorldBatch.sample(uncertain, worlds, seed=seed)
        counts, _, _ = _counts_and_choice(batch, wedge_budget=budget)
        np.testing.assert_array_equal(counts, _oracle_counts(batch))

    @PROPERTY
    @given(
        worlds=LANE_WORLDS,
        p=st.floats(min_value=0.0, max_value=0.9),
        chunk=st.sampled_from([7, 64, 130]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_perturbation_release_stream(self, worlds, p, chunk, seed):
        graph = barabasi_albert(40, 3, seed=1)
        for batch in stream_releases(
            graph, "perturbation", p, worlds, seed=seed, chunk_size=chunk
        ):
            counts, _, _ = _counts_and_choice(batch, wedge_budget=1)
            np.testing.assert_array_equal(counts, _oracle_counts(batch))

    def test_sampled_worlds_share_one_enumeration(self, denser_uncertain):
        batch = WorldBatch.sample(denser_uncertain, 130, seed=2)
        counts, sliced, alone = _counts_and_choice(batch)
        assert (sliced, alone) == (130, 0)
        np.testing.assert_array_equal(counts, _oracle_counts(batch))

    def test_perturbation_releases_counted_alone(self):
        # every release adds its own random pairs: the union of 64 has
        # more wedges than the releases together
        graph = barabasi_albert(60, 3, seed=1)
        batch = sample_releases(graph, "perturbation", 0.6, 64, seed=3)
        counts, sliced, alone = _counts_and_choice(batch)
        assert (sliced, alone) == (0, 64)
        np.testing.assert_array_equal(counts, _oracle_counts(batch))

    def test_no_candidate_pairs(self):
        batch = WorldBatch.sample(UncertainGraph(6), 65, seed=0)
        counts, sliced, alone = _counts_and_choice(batch)
        np.testing.assert_array_equal(counts, np.zeros(65, dtype=np.int64))
        assert sliced == alone == 0

    def test_no_worlds(self, denser_uncertain):
        batch = WorldBatch.sample(denser_uncertain, 0, seed=0)
        assert triangle_counts_batch(batch).shape == (0,)


class TestClustering:
    def test_matches_sequential(self, batch):
        cc = clustering_coefficients_batch(batch)
        expected = [clustering_coefficient(g) for g in batch.graphs()]
        np.testing.assert_allclose(cc, expected, atol=1e-9, rtol=0)

    def test_k3_is_one(self):
        ug = UncertainGraph.from_pairs(
            3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]
        )
        batch = WorldBatch.sample(ug, 1, seed=0)
        np.testing.assert_allclose(clustering_coefficients_batch(batch), [1.0])

    def test_wedge_only_is_zero(self):
        ug = UncertainGraph.from_pairs(3, [(0, 1, 1.0), (1, 2, 1.0)])
        batch = WorldBatch.sample(ug, 1, seed=0)
        np.testing.assert_allclose(clustering_coefficients_batch(batch), [0.0])
