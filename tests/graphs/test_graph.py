"""Tests for the Graph data structure."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graphs.graph import Graph, pair_index


class TestConstruction:
    def test_empty(self):
        g = Graph(0)
        assert g.num_vertices == 0
        assert g.num_edges == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Graph(-1)

    def test_from_edges_dedupes(self):
        g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_equality(self, triangle):
        other = Graph.from_edges(3, [(1, 2), (0, 2), (0, 1)])
        assert triangle == other

    def test_inequality_different_edges(self, triangle, path4):
        assert triangle != path4


class TestMutation:
    """A graph is fixed at construction: no method or array mutates it."""

    def test_add_and_query(self):
        g = Graph.from_edges(3, [(0, 2)])
        assert g.has_edge(0, 2)
        assert g.has_edge(2, 0)
        assert not g.has_edge(0, 1)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self loop"):
            Graph.from_edges(3, [(1, 1)])

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 3)])
        with pytest.raises(ValueError):
            Graph(3).has_edge(0, 3)

    @pytest.mark.parametrize("name", ["indptr", "indices"])
    def test_arrays_are_read_only(self, triangle, name):
        array = getattr(triangle, name)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 5
        assert triangle.num_edges == 3

    def test_no_mutators(self, triangle):
        for name in ("add_edge", "remove_edge", "copy", "to_csr", "edge_set"):
            assert not hasattr(triangle, name)
        with pytest.raises(AttributeError):
            triangle._adj = []


class TestAccessors:
    def test_degrees(self, star5):
        assert list(star5.degrees()) == [4, 1, 1, 1, 1]

    def test_neighbors(self, path4):
        assert path4.neighbors(1) == frozenset({0, 2})

    def test_edges_ordered(self, triangle):
        edges = list(triangle.edges())
        assert all(u < v for u, v in edges)
        assert sorted(edges) == [(0, 1), (0, 2), (1, 2)]

    def test_edge_array_shape(self, triangle):
        arr = triangle.edge_array()
        assert arr.shape == (3, 2)

    def test_edge_array_empty(self):
        assert Graph(4).edge_array().shape == (0, 2)

    def test_num_pairs(self):
        assert Graph(5).num_pairs == 10
        assert Graph(1).num_pairs == 0

    def test_contains_dunder(self, triangle):
        assert (0, 1) in triangle
        assert (1, 0) in triangle

    def test_len_dunder(self, triangle):
        assert len(triangle) == 3

    def test_edge_set(self, path4):
        assert set(path4.edges()) == {(0, 1), (1, 2), (2, 3)}

    def test_edge_codes_sorted(self, path4):
        assert path4.edge_codes().tolist() == [1, 6, 11]
        assert path4.edge_array().tolist() == [[0, 1], [1, 2], [2, 3]]


class TestCsr:
    def test_round_trip(self, star5):
        indptr, indices = star5.indptr, star5.indices
        assert len(indptr) == 6
        assert indptr[-1] == 2 * star5.num_edges
        # centre row holds all leaves
        assert sorted(indices[indptr[0] : indptr[1]]) == [1, 2, 3, 4]

    def test_rows_sorted(self, rng):
        edges = rng.integers(0, 20, size=(60, 2))
        g = Graph.from_edge_array(20, edges[edges[:, 0] != edges[:, 1]])
        for v in range(20):
            row = g.indices[g.indptr[v] : g.indptr[v + 1]]
            assert list(row) == sorted(row)

    def test_degree_matches_indptr(self, path4):
        indptr = path4.indptr
        for v in range(4):
            assert indptr[v + 1] - indptr[v] == path4.degree(v)


@st.composite
def edge_arrays(draw):
    """Random edge arrays with duplicates and mirrored pairs."""
    n = draw(st.integers(1, 25))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=80,
        )
    )
    mirrors = draw(st.lists(st.sampled_from(pairs), max_size=10)) if pairs else []
    rows = pairs + [(v, u) for u, v in mirrors] + pairs[:5]
    return n, np.array(rows, dtype=np.int64).reshape(-1, 2)


class TestCsrProperty:
    @given(edge_arrays())
    def test_csr_equals_sorted_python_adjacency(self, case):
        n, edges = case
        adjacency = [set() for _ in range(n)]
        for u, v in edges.tolist():
            adjacency[u].add(v)
            adjacency[v].add(u)
        g = Graph.from_edge_array(n, edges)
        expected = [sorted(nbrs) for nbrs in adjacency]
        assert g.indptr.tolist() == [0] + np.cumsum(
            [len(row) for row in expected]
        ).tolist()
        assert g.indices.tolist() == [w for row in expected for w in row]
        assert g.degrees().tolist() == [len(row) for row in expected]
        assert g.edge_array().tolist() == sorted(
            [u, v] for u, row in enumerate(expected) for v in row if u < v
        )


class TestPairIndex:
    def test_bijection(self):
        n = 7
        seen = set()
        for u, v in itertools.combinations(range(n), 2):
            idx = pair_index(u, v, n)
            assert 0 <= idx < n * (n - 1) // 2
            seen.add(idx)
        assert len(seen) == n * (n - 1) // 2

    def test_symmetric(self):
        assert pair_index(2, 5, 8) == pair_index(5, 2, 8)

    def test_lexicographic_order(self):
        n = 6
        order = [pair_index(u, v, n) for u, v in itertools.combinations(range(n), 2)]
        assert order == list(range(n * (n - 1) // 2))

    def test_rejects_self_pair(self):
        with pytest.raises(ValueError):
            pair_index(3, 3, 8)


class TestHandshakeProperty:
    @given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=2**31))
    def test_degree_sum_is_twice_edges(self, n, seed):
        rng = np.random.default_rng(seed)
        edges = rng.integers(n, size=(min(3 * n, 40), 2))
        g = Graph.from_edge_array(n, edges[edges[:, 0] != edges[:, 1]])
        assert g.degrees().sum() == 2 * g.num_edges
