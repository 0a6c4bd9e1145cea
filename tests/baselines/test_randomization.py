"""Tests for random sparsification/perturbation baselines."""

import numpy as np
import pytest

from repro.baselines.randomization import (
    addition_probability,
    random_perturbation,
    random_sparsification,
)
from repro.graphs.generators import erdos_renyi
from repro.graphs.graph import Graph


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(120, 0.08, seed=0)


class TestSparsification:
    def test_p_zero_identity(self, graph):
        assert random_sparsification(graph, 0.0, seed=0) == graph

    def test_p_one_empties(self, graph):
        assert random_sparsification(graph, 1.0, seed=0).num_edges == 0

    def test_no_additions(self, graph):
        out = random_sparsification(graph, 0.4, seed=1)
        assert set(out.edges()) <= set(graph.edges())

    def test_expected_removal_fraction(self, graph):
        p = 0.3
        counts = [
            random_sparsification(graph, p, seed=s).num_edges for s in range(20)
        ]
        expected = (1 - p) * graph.num_edges
        assert np.mean(counts) == pytest.approx(expected, rel=0.05)

    def test_invalid_p(self, graph):
        with pytest.raises(ValueError):
            random_sparsification(graph, 1.2)

    def test_deterministic(self, graph):
        a = random_sparsification(graph, 0.5, seed=9)
        b = random_sparsification(graph, 0.5, seed=9)
        assert a == b


class TestAdditionProbability:
    def test_formula(self, graph):
        m, pairs = graph.num_edges, graph.num_pairs
        assert addition_probability(graph) == pytest.approx(m / (pairs - m))

    def test_complete_graph_zero(self):
        g = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert addition_probability(g) == 0.0


class TestPerturbation:
    def test_p_zero_identity(self, graph):
        assert random_perturbation(graph, 0.0, seed=0) == graph

    def test_expected_edge_count_preserved(self, graph):
        """Removals and additions balance in expectation (§7.3)."""
        p = 0.3
        counts = [
            random_perturbation(graph, p, seed=s).num_edges for s in range(20)
        ]
        assert np.mean(counts) == pytest.approx(graph.num_edges, rel=0.05)

    def test_adds_only_original_non_edges(self, graph):
        out = random_perturbation(graph, 0.5, seed=2)
        added = set(out.edges()) - set(graph.edges())
        for u, v in added:
            assert not graph.has_edge(u, v)

    def test_removal_rate(self, graph):
        p = 0.4
        kept = [
            len(set(random_perturbation(graph, p, seed=s).edges()) & set(graph.edges()))
            for s in range(20)
        ]
        assert np.mean(kept) == pytest.approx((1 - p) * graph.num_edges, rel=0.06)

    def test_deterministic(self, graph):
        a = random_perturbation(graph, 0.3, seed=4)
        b = random_perturbation(graph, 0.3, seed=4)
        assert a == b
