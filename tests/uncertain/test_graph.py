"""Tests for the UncertainGraph model (Definition 1, Equation 1)."""

import math

import numpy as np
import pytest

from repro.graphs.graph import Graph
from repro.uncertain.graph import UncertainGraph
from tests.oracles.posterior import incident_probabilities
from tests.oracles.worlds import (
    enumerate_worlds,
    world_log_probability,
    world_probability,
)


class TestConstruction:
    def test_from_graph_all_ones(self, triangle):
        ug = UncertainGraph.from_graph(triangle)
        assert ug.num_candidate_pairs == 3
        assert ug.probability(0, 1) == 1.0

    def test_from_pairs(self, fig1b):
        assert fig1b.probability(0, 1) == 0.7
        assert fig1b.probability(1, 0) == 0.7  # symmetric
        assert fig1b.num_candidate_pairs == 5

    def test_missing_pair_is_zero(self, fig1b):
        assert fig1b.probability(2, 3) == 0.0

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            UncertainGraph.from_pairs(3, [(0, 1, 1.5)])

    def test_self_pair_rejected(self):
        with pytest.raises(ValueError):
            UncertainGraph.from_pairs(3, [(1, 1, 0.5)])
        with pytest.raises(ValueError):
            UncertainGraph(3).probability(2, 2)

    def test_repeated_pair_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            UncertainGraph.from_pairs(3, [(0, 1, 0.5), (1, 0, 0.7)])

    def test_pair_order_kept(self):
        ug = UncertainGraph.from_pairs(4, [(2, 3, 0.1), (1, 0, 0.2), (0, 2, 0.3)])
        us, vs, ps = ug.pair_arrays()
        assert (us.tolist(), vs.tolist(), ps.tolist()) == (
            [2, 0, 0], [3, 1, 2], [0.1, 0.2, 0.3],
        )
        assert [ug.probability(*e) for e in [(3, 2), (0, 1), (2, 0), (1, 2)]] == [
            0.1, 0.2, 0.3, 0.0,
        ]

    def test_arrays_are_read_only(self, fig1b):
        indptr, data = fig1b.incident_probability_csr()
        for array in (*fig1b.pair_arrays(), indptr, data):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        assert fig1b.probability(0, 1) == 0.7

    def test_no_mutators(self, fig1b):
        for name in ("set_probability", "copy", "incident_pairs", "expected_degree"):
            assert not hasattr(fig1b, name)


class TestZeroHandling:
    def test_zero_removes_pair(self):
        ug = UncertainGraph.from_pairs(3, [(0, 1, 0.0), (1, 2, 0.5)])
        assert ug.num_candidate_pairs == 1
        assert ug.probability(0, 1) == 0.0

    def test_keep_zero_retains_pair(self):
        ug = UncertainGraph.from_arrays(3, [0], [1], [0.0], keep_zero=True)
        assert ug.num_candidate_pairs == 1
        assert ug.probability(0, 1) == 0.0


class TestExpectations:
    def test_expected_degree(self, fig1b):
        # v1's incident: 0.7 + 0.9 + 0.8
        assert fig1b.expected_degrees()[0] == pytest.approx(2.4)

    def test_expected_degrees_vector(self, fig1b):
        expected = [2.4, 0.7 + 0.8 + 0.1, 0.9 + 0.8, 0.8 + 0.1]
        assert np.allclose(fig1b.expected_degrees(), expected)

    def test_expected_num_edges(self, fig1b):
        assert fig1b.expected_num_edges() == pytest.approx(3.3)

    def test_incident_probabilities(self, fig1b):
        indptr, data = fig1b.incident_probability_csr()
        assert sorted(data[indptr[0] : indptr[1]]) == pytest.approx([0.7, 0.8, 0.9])
        for v, probs in enumerate(incident_probabilities(fig1b)):
            assert sorted(probs) == sorted(data[indptr[v] : indptr[v + 1]])


class TestWorldProbability:
    def test_equation_one(self, fig1b):
        """Pr(W) = Π p(e) · Π (1-p(e)) for W containing only (v1,v2)."""
        world = Graph.from_edges(4, [(0, 1)])
        expected = 0.7 * (1 - 0.9) * (1 - 0.8) * (1 - 0.8) * (1 - 0.1)
        assert world_probability(fig1b, world) == pytest.approx(expected)

    def test_world_outside_candidates_impossible(self, fig1b):
        world = Graph.from_edges(4, [(2, 3)])  # p = 0 pair
        assert world_probability(fig1b, world) == 0.0

    def test_mismatched_vertex_count_rejected(self, fig1b):
        with pytest.raises(ValueError):
            world_log_probability(fig1b, Graph(5))

    def test_certain_graph_single_world(self, triangle):
        ug = UncertainGraph.from_graph(triangle)
        assert world_probability(ug, triangle) == pytest.approx(1.0)
        assert world_probability(ug, Graph(3)) == 0.0

    def test_log_probability_consistency(self, fig1b):
        world = Graph.from_edges(4, [(0, 2), (1, 2)])
        log_p = world_log_probability(fig1b, world)
        assert math.exp(log_p) == pytest.approx(world_probability(fig1b, world))


class TestEnumeration:
    def test_probabilities_sum_to_one(self, fig1b):
        total = sum(p for _, p in enumerate_worlds(fig1b))
        assert total == pytest.approx(1.0)

    def test_world_count(self):
        ug = UncertainGraph.from_pairs(3, [(0, 1, 0.5), (1, 2, 0.5)])
        worlds = list(enumerate_worlds(ug))
        assert len(worlds) == 4

    def test_zero_probability_worlds_skipped(self):
        ug = UncertainGraph.from_pairs(3, [(0, 1, 1.0), (1, 2, 0.5)])
        worlds = list(enumerate_worlds(ug))
        # (0,1) always present: only 2 worlds have positive probability
        assert len(worlds) == 2
        assert all(w.has_edge(0, 1) for w, _ in worlds)

    def test_refuses_large_candidate_sets(self):
        ug = UncertainGraph.from_pairs(30, [(i, i + 1, 0.5) for i in range(21)])
        with pytest.raises(ValueError, match="refusing"):
            list(enumerate_worlds(ug))

    def test_expected_edges_matches_enumeration(self, fig1b):
        by_enum = sum(p * w.num_edges for w, p in enumerate_worlds(fig1b))
        assert by_enum == pytest.approx(fig1b.expected_num_edges())
