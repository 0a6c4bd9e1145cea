"""Tests for triangle counting and clustering — paper Example 3 + networkx."""

import networkx as nx
import pytest

from repro.graphs.generators import erdos_renyi, powerlaw_cluster
from repro.graphs.graph import Graph
from repro.graphs.triangles import (
    centered_triple_count,
    clustering_coefficient,
    connected_triple_count,
    count_triangles,
    transitivity,
    triangle_count,
)

from tests.oracles import triangles as oracle


def to_networkx(g: Graph) -> nx.Graph:
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.num_vertices))
    nxg.add_edges_from(g.edges())
    return nxg


class TestPaperExample3:
    """§6.4 Example 3: T3[K3] = T2[K3] = 1 so S_CC[K3] = 1; wedge gives 0."""

    def test_k3(self, triangle):
        assert triangle_count(triangle) == 1
        assert connected_triple_count(triangle) == 1
        assert clustering_coefficient(triangle) == pytest.approx(1.0)

    def test_wedge(self):
        g = Graph.from_edges(3, [(0, 1), (0, 2)])
        assert triangle_count(g) == 0
        assert connected_triple_count(g) == 1
        assert clustering_coefficient(g) == pytest.approx(0.0)


class TestTriangleCount:
    def test_empty(self):
        assert triangle_count(Graph(5)) == 0

    def test_k4(self):
        g = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert triangle_count(g) == 4

    def test_two_triangles_sharing_edge(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
        assert triangle_count(g) == 2

    @pytest.mark.parametrize("seed", [0, 7])
    def test_against_networkx(self, seed):
        g = erdos_renyi(60, 0.12, seed=seed)
        expected = sum(nx.triangles(to_networkx(g)).values()) // 3
        assert triangle_count(g) == expected


#: Every graph the tests in this module count.
ORACLE_GRAPHS = {
    "k3": Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)]),
    "wedge": Graph.from_edges(3, [(0, 1), (0, 2)]),
    "empty": Graph(5),
    "path4": Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]),
    "star5": Graph.from_edges(5, [(0, i) for i in range(1, 5)]),
    "k4": Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)]),
    "two_triangles": Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]),
    **{
        f"er{n}_{seed}": erdos_renyi(n, p, seed=seed)
        for n, p, seed in (
            (60, 0.12, 0), (60, 0.12, 7), (70, 0.1, 4),
            (50, 0.15, 0), (50, 0.15, 1), (50, 0.15, 2), (50, 0.15, 6),
        )
    },
    **{
        f"plc{n}_{seed}": powerlaw_cluster(n, m, p, seed=seed)
        for n, m, p, seed in (
            (80, 3, 0.8, 2), (120, 3, 0.6, 8), (90, 3, 0.7, 3), (100, 2, 0.7, 1),
        )
    },
}


class TestAgainstOracle:
    """The forward kernel against the edge-iterator reference."""

    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
    def test_triangle_count(self, name):
        g = ORACLE_GRAPHS[name]
        assert triangle_count(g) == oracle.triangle_count(g)

    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
    def test_clustering_coefficient(self, name):
        g = ORACLE_GRAPHS[name]
        assert clustering_coefficient(g) == oracle.clustering_coefficient(g)

    @pytest.mark.parametrize("budget", [1, 2, 5])
    def test_block_size_invariant(self, budget):
        g = ORACLE_GRAPHS["plc120_8"]
        edges = g.edge_array()
        got = count_triangles(
            g.num_vertices, edges[:, 0], edges[:, 1], wedge_budget=budget
        )
        assert got == oracle.triangle_count(g)


class TestTripleCounts:
    def test_centered_star(self, star5):
        # centre degree 4: C(4,2)=6 wedges, leaves contribute none
        assert centered_triple_count(star5) == 6

    def test_identity_t2(self):
        """T2 = centered − 2·T3 on a graph with triangles."""
        g = powerlaw_cluster(80, 3, 0.8, seed=2)
        t3 = triangle_count(g)
        assert connected_triple_count(g) == centered_triple_count(g) - 2 * t3

    def test_path_triples(self, path4):
        assert connected_triple_count(path4) == 2


class TestClustering:
    def test_transitivity_against_networkx(self):
        g = erdos_renyi(70, 0.1, seed=4)
        assert transitivity(g) == pytest.approx(nx.transitivity(to_networkx(g)))

    def test_transitivity_powerlaw_against_networkx(self):
        g = powerlaw_cluster(120, 3, 0.6, seed=8)
        assert transitivity(g) == pytest.approx(nx.transitivity(to_networkx(g)))

    def test_empty_graph_zero(self):
        assert clustering_coefficient(Graph(4)) == 0.0
        assert transitivity(Graph(4)) == 0.0

    def test_cc_in_unit_interval(self):
        for seed in range(3):
            g = erdos_renyi(50, 0.15, seed=seed)
            assert 0.0 <= clustering_coefficient(g) <= 1.0

    def test_paper_cc_vs_transitivity_relation(self):
        """S_CC = t·W / (W − 2·T3) where t = transitivity, W = wedges."""
        g = powerlaw_cluster(90, 3, 0.7, seed=3)
        w = centered_triple_count(g)
        t3 = triangle_count(g)
        if w > 2 * t3:
            expected = t3 / (w - 2 * t3)
            assert clustering_coefficient(g) == pytest.approx(expected)
