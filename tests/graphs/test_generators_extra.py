"""Additional generator-quality tests: structural realism checks.

These verify the properties that make the surrogates valid stand-ins
for the paper's datasets (DESIGN.md §3): degree-distribution skew,
uniqueness concentration in the tail, and growth-model invariants.
"""

import numpy as np
import pytest

from repro.core.uniqueness import degree_uniqueness
from repro.graphs.generators import (
    barabasi_albert,
    erdos_renyi,
    powerlaw_cluster,
    watts_strogatz,
)
from repro.graphs.datasets import dblp_like, flickr_like, y360_like
from repro.graphs.traversal import bfs_distances


class TestHeavyTailRealism:
    def test_powerlaw_more_skewed_than_er(self):
        """Same density: the PA surrogate has a far heavier degree tail."""
        pa = powerlaw_cluster(600, 3, 0.5, seed=0)
        er = erdos_renyi(600, 2 * pa.num_edges / (600 * 599), seed=0)
        assert pa.degrees().max() > 2 * er.degrees().max()

    def test_uniqueness_concentrates_in_hubs(self):
        """The obfuscation cost driver: hubs are the unique vertices."""
        g = dblp_like(scale=0.3, seed=0)
        degrees = g.degrees()
        uniq = degree_uniqueness(degrees, 0.5)
        hubs = np.argsort(degrees)[-20:]
        others = np.argsort(degrees)[: len(degrees) - 20]
        assert uniq[hubs].mean() > 10 * uniq[others].mean()

    def test_surrogates_have_unique_hubs(self):
        """Each dataset has at least one vertex needing the ε tolerance."""
        for builder in (dblp_like, flickr_like, y360_like):
            g = builder(scale=0.2, seed=0)
            counts = np.bincount(g.degrees())
            max_deg = g.degrees().max()
            assert counts[max_deg] <= 2  # the top hub is (nearly) unique


class TestGrowthInvariants:
    @pytest.mark.parametrize("n", [50, 200])
    def test_ba_connected(self, n):
        g = barabasi_albert(n, 2, seed=1)
        assert (bfs_distances(g, 0) >= 0).all()

    def test_ws_degree_regularity_without_rewiring(self):
        g = watts_strogatz(30, 6, 0.0, seed=0)
        assert (g.degrees() == 6).all()

    def test_ws_rewiring_preserves_mean_degree(self):
        g = watts_strogatz(60, 4, 0.7, seed=2)
        assert g.degrees().mean() == pytest.approx(4.0)

    def test_generator_seeds_independent(self):
        a = powerlaw_cluster(100, 2, 0.5, seed=1)
        b = powerlaw_cluster(100, 2, 0.5, seed=2)
        assert a != b


class TestDatasetScaling:
    def test_density_stable_across_scales(self):
        """Scaling n keeps average degree approximately fixed (the DESIGN
        requirement that lets ε rescaling preserve difficulty)."""
        small = dblp_like(scale=0.2, seed=0)
        large = dblp_like(scale=0.6, seed=0)
        d_small = 2 * small.num_edges / small.num_vertices
        d_large = 2 * large.num_edges / large.num_vertices
        assert d_small == pytest.approx(d_large, rel=0.1)

    def test_minimum_viable_scale(self):
        g = dblp_like(scale=0.001, seed=0)  # clamps to attach_m + 2
        assert g.num_vertices >= 5
