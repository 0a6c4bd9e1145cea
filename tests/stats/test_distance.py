"""Tests for distance statistics (§6.3) — exact values + networkx oracle."""

import networkx as nx
import numpy as np
import pytest

from repro.graphs.generators import erdos_renyi, powerlaw_cluster
from repro.graphs.graph import Graph
from repro.stats.distance import (
    DistanceHistogram,
    average_distance,
    connectivity_length,
    diameter,
    distance_histogram,
    effective_diameter,
)


def to_networkx(g: Graph) -> nx.Graph:
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.num_vertices))
    nxg.add_edges_from(g.edges())
    return nxg


class TestHistogram:
    def test_path_counts(self, path4):
        hist = distance_histogram(path4)
        # distances: 1×3 pairs at d=1, 2 at d=2, 1 at d=3
        assert list(hist.counts[1:4]) == [3.0, 2.0, 1.0]
        assert hist.disconnected == 0.0
        assert hist.exact

    def test_disconnected_pairs(self, two_components):
        hist = distance_histogram(two_components)
        assert hist.counts[1] == 2.0
        assert hist.disconnected == 8.0  # C(5,2)=10 pairs − 2 connected

    def test_total_pairs_invariant(self):
        for seed in range(3):
            g = erdos_renyi(40, 0.05, seed=seed)
            hist = distance_histogram(g)
            assert hist.total_pairs == pytest.approx(g.num_pairs)

    def test_sampled_estimator_unbiased(self):
        g = powerlaw_cluster(300, 2, 0.3, seed=0)
        exact = distance_histogram(g)
        est = [
            distance_histogram(g, sample_size=100, seed=s).connected_pairs
            for s in range(15)
        ]
        assert np.mean(est) == pytest.approx(exact.connected_pairs, rel=0.05)
        assert not distance_histogram(g, sample_size=100, seed=0).exact

    def test_explicit_sources(self, path4):
        hist = distance_histogram(path4, sources=np.array([0, 1, 2, 3]))
        assert hist.counts[1] == 3.0

    def test_empty_graph(self):
        hist = distance_histogram(Graph(0))
        assert hist.total_pairs == 0


class TestScalarStats:
    def test_average_distance_path(self, path4):
        hist = distance_histogram(path4)
        # (3·1 + 2·2 + 1·3)/6 = 10/6
        assert average_distance(hist) == pytest.approx(10 / 6)

    def test_average_distance_against_networkx(self):
        g = erdos_renyi(60, 0.15, seed=4)
        nxg = to_networkx(g)
        if nx.is_connected(nxg):
            hist = distance_histogram(g)
            assert average_distance(hist) == pytest.approx(
                nx.average_shortest_path_length(nxg)
            )

    def test_diameter_against_networkx(self):
        g = erdos_renyi(50, 0.15, seed=5)
        nxg = to_networkx(g)
        if nx.is_connected(nxg):
            assert diameter(distance_histogram(g)) == nx.diameter(nxg)

    def test_diameter_ignores_disconnection(self, two_components):
        assert diameter(distance_histogram(two_components)) == 1.0

    def test_effective_diameter_at_most_diameter(self):
        for seed in range(3):
            g = erdos_renyi(70, 0.1, seed=seed)
            hist = distance_histogram(g)
            assert effective_diameter(hist) <= diameter(hist)

    def test_effective_diameter_interpolates(self):
        """Synthetic histogram: 90% of mass exactly at the boundary."""
        counts = np.array([0.0, 90.0, 10.0])
        hist = DistanceHistogram(counts=counts, disconnected=0.0)
        assert effective_diameter(hist) == pytest.approx(1.0)
        counts = np.array([0.0, 50.0, 50.0])
        hist = DistanceHistogram(counts=counts, disconnected=0.0)
        # target 90: 50 below, interpolate (90-50)/50 into bin 2
        assert effective_diameter(hist) == pytest.approx(1.8)

    def test_connectivity_length_k3(self, triangle):
        hist = distance_histogram(triangle)
        assert connectivity_length(hist) == pytest.approx(1.0)

    def test_connectivity_length_counts_disconnected(self, two_components):
        """Harmonic mean over ALL pairs: 10 pairs, Σ 1/d = 2 → 5."""
        hist = distance_histogram(two_components)
        assert connectivity_length(hist) == pytest.approx(5.0)

    def test_connectivity_length_totally_disconnected(self):
        hist = distance_histogram(Graph(4))
        assert connectivity_length(hist) == float("inf")

    def test_pdd_fractions_sum_to_connected_share(self, two_components):
        pdd = distance_histogram(two_components).fractions()
        assert pdd.sum() == pytest.approx(0.2)


class TestAgainstNetworkxSweep:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_full_histogram(self, seed):
        g = erdos_renyi(45, 0.1, seed=seed)
        nxg = to_networkx(g)
        ours = distance_histogram(g)
        lengths = dict(nx.all_pairs_shortest_path_length(nxg))
        counts = {}
        disconnected = 0
        for u in range(45):
            for v in range(u + 1, 45):
                d = lengths.get(u, {}).get(v)
                if d is None:
                    disconnected += 1
                else:
                    counts[d] = counts.get(d, 0) + 1
        for d, c in counts.items():
            assert ours.counts[d] == c
        assert ours.disconnected == disconnected
