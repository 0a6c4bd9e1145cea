"""Tests for random-graph generators."""

import numpy as np
import pytest

from repro.graphs.generators import (
    affiliation_graph,
    barabasi_albert,
    configuration_model_edges,
    erdos_renyi,
    powerlaw_cluster,
    powerlaw_degree_sequence,
    watts_strogatz,
)
from repro.graphs.graph import Graph
from repro.graphs.traversal import bfs_distances
from repro.graphs.triangles import transitivity


class TestErdosRenyi:
    def test_p_zero_empty(self):
        assert erdos_renyi(30, 0.0, seed=0).num_edges == 0

    def test_p_one_complete(self):
        g = erdos_renyi(10, 1.0, seed=0)
        assert g.num_edges == 45

    def test_expected_edge_count(self):
        n, p = 200, 0.05
        counts = [erdos_renyi(n, p, seed=s).num_edges for s in range(10)]
        expected = p * n * (n - 1) / 2
        assert abs(np.mean(counts) - expected) < 0.1 * expected

    def test_deterministic_with_seed(self):
        a = erdos_renyi(50, 0.1, seed=3)
        b = erdos_renyi(50, 0.1, seed=3)
        assert a == b

    def test_invalid_p_rejected(self):
        with pytest.raises(ValueError):
            erdos_renyi(10, 1.5)

    def test_no_self_loops(self):
        g = erdos_renyi(40, 0.2, seed=1)
        for u, v in g.edges():
            assert u != v


class TestBarabasiAlbert:
    def test_edge_count(self):
        # star seed gives m edges; each later vertex adds exactly m
        g = barabasi_albert(100, 3, seed=0)
        assert g.num_edges == 3 + (100 - 4) * 3

    def test_min_degree_at_least_m(self):
        g = barabasi_albert(80, 2, seed=1)
        assert g.degrees().min() >= 2

    def test_heavy_tail(self):
        g = barabasi_albert(500, 2, seed=2)
        degs = g.degrees()
        assert degs.max() > 5 * np.median(degs)

    def test_invalid_m_rejected(self):
        with pytest.raises(ValueError):
            barabasi_albert(10, 0)
        with pytest.raises(ValueError):
            barabasi_albert(10, 10)

    def test_deterministic(self):
        assert barabasi_albert(60, 2, seed=5) == barabasi_albert(60, 2, seed=5)


class TestPowerlawCluster:
    def test_edge_count_bound(self):
        g = powerlaw_cluster(100, 3, 0.5, seed=0)
        assert g.num_edges <= 3 + (100 - 4) * 3
        assert g.num_edges >= 100  # connected-ish growth

    def test_triads_raise_clustering(self):
        low = transitivity(powerlaw_cluster(300, 3, 0.0, seed=1))
        high = transitivity(powerlaw_cluster(300, 3, 0.95, seed=1))
        assert high > low

    def test_connected_growth(self):
        g = powerlaw_cluster(200, 2, 0.5, seed=3)
        assert (bfs_distances(g, 0) >= 0).all()

    def test_invalid_triad_p(self):
        with pytest.raises(ValueError):
            powerlaw_cluster(50, 2, 1.5)

    def test_deterministic(self):
        a = powerlaw_cluster(80, 2, 0.4, seed=9)
        b = powerlaw_cluster(80, 2, 0.4, seed=9)
        assert a == b


class TestWattsStrogatz:
    def test_no_rewiring_is_lattice(self):
        g = watts_strogatz(20, 4, 0.0, seed=0)
        assert g.num_edges == 40
        assert (g.degrees() == 4).all()

    def test_rewiring_preserves_edge_count(self):
        g = watts_strogatz(50, 6, 0.5, seed=2)
        assert g.num_edges == 150

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            watts_strogatz(20, 3, 0.1)

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError):
            watts_strogatz(10, 10, 0.1)


class TestDegreeSequence:
    def test_even_sum(self):
        for seed in range(5):
            degs = powerlaw_degree_sequence(101, 2.5, seed=seed)
            assert degs.sum() % 2 == 0

    def test_range_respected(self):
        degs = powerlaw_degree_sequence(200, 2.0, d_min=2, d_max=20, seed=0)
        assert degs.min() >= 2
        # +1 possible from the parity patch
        assert degs.max() <= 21

    def test_invalid_exponent(self):
        with pytest.raises(ValueError):
            powerlaw_degree_sequence(50, 0.9)

    def test_skew(self):
        degs = powerlaw_degree_sequence(2000, 2.0, d_min=1, d_max=50, seed=1)
        assert np.median(degs) < np.mean(degs)


class TestConfigurationModel:
    def test_degrees_bounded_by_targets(self):
        targets = np.array([3, 3, 2, 2, 1, 1])
        edges = configuration_model_edges(targets, seed=0)
        g = Graph.from_edge_array(len(targets), edges)
        assert (g.degrees() <= targets).all()

    def test_powerlaw_sequence_builds_graph(self):
        """The paper-scale builder's pipeline: a power-law sequence, wired."""
        targets = powerlaw_degree_sequence(300, 2.5, seed=4)
        g = Graph.from_edge_array(300, configuration_model_edges(targets, seed=4))
        assert g.num_vertices == 300
        assert g.num_edges > 0
        assert (g.degrees() <= targets).all()

    def test_graph_keeps_every_edge(self):
        edges = configuration_model_edges(np.array([3, 3, 2, 2, 1, 1]), seed=0)
        g = Graph.from_edge_array(6, edges)
        assert g.num_edges == len(edges)
        np.testing.assert_array_equal(g.edge_array(), edges)


class TestAffiliationGraph:
    def test_builds_cliques(self):
        g = affiliation_graph(50, 10, [0.0, 1.0], novelty=1.0, seed=0)
        # all groups size 3 → triangles exist
        from repro.graphs.triangles import triangle_count

        assert triangle_count(g) >= 1

    def test_deterministic(self):
        a = affiliation_graph(100, 50, [0.5, 0.5], seed=7)
        b = affiliation_graph(100, 50, [0.5, 0.5], seed=7)
        assert a == b

    def test_invalid_probs_rejected(self):
        with pytest.raises(ValueError):
            affiliation_graph(50, 10, [0.5, 0.4])

    def test_heavy_participation_tail(self):
        g = affiliation_graph(400, 500, [0.4, 0.4, 0.2], novelty=0.3, seed=1)
        degs = g.degrees()
        active = degs[degs > 0]
        assert active.max() > 4 * np.median(active)


class TestConfigurationModelEdges:
    def _sequential_edge_set(self, degrees, seed):
        """The former per-stub Python loop, kept as the pin oracle."""
        from repro.utils.rng import as_rng

        rng = as_rng(seed)
        stubs = np.repeat(np.arange(len(degrees)), degrees)
        rng.shuffle(stubs)
        seen = set()
        for i in range(0, len(stubs) - 1, 2):
            u, v = int(stubs[i]), int(stubs[i + 1])
            if u != v:
                seen.add((min(u, v), max(u, v)))
        return seen

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_matches_sequential_loop_edge_set(self, seed):
        rng = np.random.default_rng(seed)
        degrees = rng.integers(0, 8, size=120)
        if degrees.sum() % 2:
            degrees[0] += 1
        edges = configuration_model_edges(degrees, seed=(seed, 1))
        expected = self._sequential_edge_set(degrees, (seed, 1))
        assert {(int(u), int(v)) for u, v in edges} == expected

    def test_rows_canonical_and_sorted(self):
        degrees = np.full(200, 4)
        edges = configuration_model_edges(degrees, seed=5)
        assert (edges[:, 0] < edges[:, 1]).all()
        codes = edges[:, 0] * 200 + edges[:, 1]
        assert (np.diff(codes) > 0).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            configuration_model_edges(np.array([1, 1, 1]))
        with pytest.raises(ValueError):
            configuration_model_edges(np.array([2, -1, 1]))
