"""Tests for BFS traversal kernels — validated against networkx as oracle."""

import networkx as nx
import numpy as np
import pytest

from repro.graphs.generators import erdos_renyi, powerlaw_cluster
from repro.graphs.graph import Graph
from repro.graphs.traversal import (
    all_pairs_distances,
    bfs_distances,
    connected_components,
    eccentricity,
    largest_component_size,
)


def to_networkx(g: Graph) -> nx.Graph:
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.num_vertices))
    nxg.add_edges_from(g.edges())
    return nxg


class TestBfsDistances:
    def test_path(self, path4):
        assert list(bfs_distances(path4, 0)) == [0, 1, 2, 3]

    def test_unreachable_marked(self, two_components):
        dist = bfs_distances(two_components, 0)
        assert dist[1] == 1
        assert dist[2] == -1 and dist[3] == -1 and dist[4] == -1

    def test_isolated_source(self, two_components):
        dist = bfs_distances(two_components, 4)
        assert dist[4] == 0
        assert (dist[:4] == -1).all()

    def test_star(self, star5):
        dist = bfs_distances(star5, 1)
        assert dist[0] == 1
        assert dist[1] == 0
        assert all(dist[i] == 2 for i in range(2, 5))

    def test_csr_input_matches_graph_input(self, star5):
        """A graph wrapped around another's CSR arrays (as sweep workers
        wrap the shared ones) traverses identically."""
        wrapped = Graph._from_csr(star5.indptr, star5.indices)
        a = bfs_distances(star5, 0)
        b = bfs_distances(wrapped, 0)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_against_networkx(self, seed):
        g = erdos_renyi(60, 0.06, seed=seed)
        nxg = to_networkx(g)
        for source in (0, 13, 42):
            ours = bfs_distances(g, source)
            theirs = nx.single_source_shortest_path_length(nxg, source)
            for v in range(60):
                expected = theirs.get(v, -1)
                assert ours[v] == expected

    def test_powerlaw_against_networkx(self):
        g = powerlaw_cluster(150, 2, 0.5, seed=5)
        nxg = to_networkx(g)
        ours = bfs_distances(g, 0)
        theirs = nx.single_source_shortest_path_length(nxg, 0)
        assert all(ours[v] == theirs.get(v, -1) for v in range(150))


class TestAllPairs:
    def test_matrix_shape(self, path4):
        mat = all_pairs_distances(path4)
        assert mat.shape == (4, 4)
        assert mat[0, 3] == 3

    def test_symmetric(self):
        g = erdos_renyi(40, 0.1, seed=3)
        mat = all_pairs_distances(g)
        assert np.array_equal(mat, mat.T)

    def test_subset_sources(self, path4):
        mat = all_pairs_distances(path4, sources=np.array([1, 3]))
        assert mat.shape == (2, 4)
        assert mat[0, 0] == 1
        assert mat[1, 0] == 3


class TestComponents:
    def test_single_component(self, triangle):
        labels = connected_components(triangle)
        assert len(set(labels)) == 1

    def test_multiple(self, two_components):
        labels = connected_components(two_components)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert len({labels[0], labels[2], labels[4]}) == 3

    def test_against_networkx(self):
        g = erdos_renyi(80, 0.02, seed=9)
        ours = connected_components(g)
        theirs = list(nx.connected_components(to_networkx(g)))
        assert len(set(ours)) == len(theirs)
        for comp in theirs:
            comp = list(comp)
            assert len({ours[v] for v in comp}) == 1

    def test_largest_component_size(self, two_components):
        assert largest_component_size(two_components) == 2

    def test_largest_component_empty(self):
        assert largest_component_size(Graph(0)) == 0


class TestEccentricity:
    def test_path_end(self, path4):
        assert eccentricity(path4, 0) == 3

    def test_path_middle(self, path4):
        assert eccentricity(path4, 1) == 2

    def test_against_networkx(self):
        g = erdos_renyi(50, 0.15, seed=21)
        nxg = to_networkx(g)
        if nx.is_connected(nxg):
            ecc = nx.eccentricity(nxg)
            for v in (0, 10, 25):
                assert eccentricity(g, v) == ecc[v]
