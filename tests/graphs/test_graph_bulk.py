"""Tests for the bulk ``Graph.from_edge_array`` constructor."""

import numpy as np
import pytest

from repro.graphs.graph import Graph


class TestFromEdgeArray:
    def test_matches_from_edges(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 30))
            m = int(rng.integers(0, 60))
            edges = rng.integers(0, n, size=(m, 2))
            edges = edges[edges[:, 0] != edges[:, 1]]
            bulk = Graph.from_edge_array(n, edges)
            loop = Graph.from_edges(n, [tuple(e) for e in edges])
            assert bulk == loop
            assert bulk.num_edges == loop.num_edges

    def test_collapses_duplicates_and_mirrors(self):
        g = Graph.from_edge_array(3, np.array([[0, 1], [1, 0], [0, 1]]))
        assert g.num_edges == 1
        assert g.has_edge(0, 1)

    def test_empty(self):
        g = Graph.from_edge_array(4, np.empty((0, 2), dtype=np.int64))
        assert g.num_edges == 0
        assert g.num_vertices == 4

    def test_isolated_vertices_get_empty_sets(self):
        g = Graph.from_edge_array(5, np.array([[1, 3]]))
        assert sorted(g.neighbors(1)) == [3]
        assert g.degree(0) == 0 and g.degree(4) == 0

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self loops"):
            Graph.from_edge_array(3, np.array([[1, 1]]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="vertex ids"):
            Graph.from_edge_array(3, np.array([[0, 3]]))
        with pytest.raises(ValueError, match="vertex ids"):
            Graph.from_edge_array(3, np.array([[-1, 2]]))

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            Graph.from_edge_array(3, np.array([[0, 1, 2]]))

    def test_malformed_empty_rejected(self):
        """Shape is validated before the empty fast path."""
        with pytest.raises(ValueError, match="shape"):
            Graph.from_edge_array(3, np.zeros((0, 7)))
        with pytest.raises(ValueError, match="shape"):
            Graph.from_edge_array(3, [])

    def test_csr_export_matches(self, rng):
        edges = rng.integers(0, 12, size=(30, 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
        bulk = Graph.from_edge_array(12, edges)
        loop = Graph.from_edges(12, [tuple(e) for e in edges])
        np.testing.assert_array_equal(bulk.indptr, loop.indptr)
        np.testing.assert_array_equal(bulk.indices, loop.indices)
