"""Tests for BFS traversal kernels — validated against networkx as oracle."""

import networkx as nx
import numpy as np
import pytest

from repro.graphs.generators import erdos_renyi, powerlaw_cluster
from repro.graphs.graph import Graph
from repro.graphs.traversal import all_pairs_distances, bfs_distances


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


class TestReachability:
    """Vertices with a non-negative BFS distance form the source's component."""

    def test_connected_graph_reaches_every_vertex(self, triangle):
        assert (bfs_distances(triangle, 0) >= 0).all()

    def test_components_against_networkx(self):
        g = erdos_renyi(80, 0.02, seed=9)
        nxg = to_networkx(g)
        assert nx.number_connected_components(nxg) > 1
        for v in range(80):
            reached = set(np.flatnonzero(bfs_distances(g, v) >= 0).tolist())
            assert reached == nx.node_connected_component(nxg, v)


class TestEccentricity:
    """The largest finite BFS distance is the source's eccentricity."""

    def test_path(self, path4):
        ecc = [int(bfs_distances(path4, v).max()) for v in range(4)]
        assert ecc == [3, 2, 2, 3]

    def test_against_networkx(self):
        g = powerlaw_cluster(60, 2, 0.3, seed=21)
        nxg = to_networkx(g)
        assert nx.is_connected(nxg)
        theirs = nx.eccentricity(nxg)
        for v in range(60):
            assert int(bfs_distances(g, v).max()) == theirs[v]
