"""Multi-world HyperANF vs per-world edge-wise runs (must be identical)."""

import numpy as np
import pytest

from repro.anf.distance_stats import anf_distance_histogram
from repro.stats.distance import (
    average_distance,
    connectivity_length,
    diameter,
    effective_diameter,
)
from repro.uncertain.graph import UncertainGraph
from repro.worlds import WorldBatch, anf_distance_statistics_batch, hyperanf_batch
from repro.worlds.anf_batch import DISTANCE_STATISTIC_NAMES

from tests.oracles.anf import hyperanf_edgewise


@pytest.fixture
def batch(small_uncertain):
    return WorldBatch.sample(small_uncertain, 8, seed=9)


class TestHyperanfBatch:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_per_world_runs(self, batch, seed):
        nfs = hyperanf_batch(batch, b=6, seed=seed)
        for w, g in enumerate(batch.graphs()):
            ref = hyperanf_edgewise(g, b=6, seed=seed)
            assert nfs[w].converged_at == ref.converged_at, w
            np.testing.assert_array_equal(nfs[w].values, ref.values)

    def test_max_steps_cap(self, batch):
        nfs = hyperanf_batch(batch, max_steps=1)
        for w, g in enumerate(batch.graphs()):
            ref = hyperanf_edgewise(g, max_steps=1)
            assert nfs[w].converged_at == ref.converged_at
            np.testing.assert_array_equal(nfs[w].values, ref.values)

    def test_mixed_convergence_times(self):
        """One empty world freezes at step 0 while a path keeps diffusing."""
        ug = UncertainGraph.from_pairs(
            5, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (3, 4, 0.5)]
        )
        batch = WorldBatch.sample(ug, 16, seed=2)
        nfs = hyperanf_batch(batch)
        refs = [hyperanf_edgewise(g) for g in batch.graphs()]
        assert len({nf.converged_at for nf in nfs}) > 1  # genuinely mixed
        for nf, ref in zip(nfs, refs):
            assert nf.converged_at == ref.converged_at
            np.testing.assert_array_equal(nf.values, ref.values)

    def test_empty_batch(self, small_uncertain):
        assert hyperanf_batch(WorldBatch.sample(small_uncertain, 0, seed=0)) == []

    def test_no_vertices(self):
        batch = WorldBatch.sample(UncertainGraph(0), 3, seed=0)
        nfs = hyperanf_batch(batch)
        assert len(nfs) == 3
        assert all(nf.converged_at == 0 for nf in nfs)


class TestDistanceStatistics:
    def test_matches_sequential_histogram_path(self, batch):
        out = anf_distance_statistics_batch(batch, seed=3)
        stats = {
            "S_APD": average_distance,
            "S_DiamLB": diameter,
            "S_EDiam": effective_diameter,
            "S_CL": connectivity_length,
        }
        for w, g in enumerate(batch.graphs()):
            hist = anf_distance_histogram(g, seed=3)
            for name in DISTANCE_STATISTIC_NAMES:
                assert out[name][w] == pytest.approx(
                    stats[name](hist), abs=1e-9
                ), (name, w)
