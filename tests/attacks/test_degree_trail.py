"""Tests for the degree-trail attack (Medforth & Wang extension)."""

import numpy as np
import pytest

from repro.attacks.degree_trail import (
    degree_trails,
    expected_degree_trails,
    reidentification_rate,
    trail_matches,
    trail_uniqueness_rate,
)
from repro.graphs.generators import erdos_renyi
from repro.graphs.graph import Graph
from repro.uncertain.graph import UncertainGraph


class TestTrails:
    def test_degree_trails_shape(self, triangle, path4):
        g1 = Graph.from_edges(4, [(0, 1)])
        g2 = Graph.from_edges(4, [(0, 1), (1, 2)])
        trails = degree_trails([g1, g2])
        assert trails.shape == (4, 2)
        assert trails[1, 0] == 1 and trails[1, 1] == 2

    def test_mismatched_vertex_sets_rejected(self, triangle, path4):
        with pytest.raises(ValueError):
            degree_trails([triangle, path4])

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            degree_trails([])

    def test_expected_trails(self, fig1b):
        trails = expected_degree_trails([fig1b, fig1b])
        assert trails.shape == (4, 2)
        assert trails[0, 0] == pytest.approx(2.4)


class TestMatching:
    def test_exact_match_integer_trails(self):
        trails = np.array([[1.0, 2.0], [1.0, 3.0], [1.0, 2.0]])
        matches = trail_matches(np.array([1.0, 2.0]), trails)
        assert list(matches) == [0, 2]

    def test_tolerance(self):
        trails = np.array([[1.0, 2.0]])
        assert len(trail_matches(np.array([1.4, 2.4]), trails, tol=0.5)) == 1
        assert len(trail_matches(np.array([1.6, 2.0]), trails, tol=0.5)) == 0


class TestReidentification:
    def test_identical_releases_full_reid_when_unique(self):
        """Publishing the untouched graph re-identifies every unique trail."""
        g1 = Graph.from_edges(4, [(0, 1)])
        g2 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        trails = degree_trails([g1, g2])
        rate = reidentification_rate(trails, trails)
        assert rate == trail_uniqueness_rate(trails)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            reidentification_rate(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_wrong_unique_match_does_not_count(self):
        original = np.array([[5.0], [1.0]])
        published = np.array([[1.0], [9.0]])
        # vertex 0's trail (5) matches nothing; vertex 1's trail (1)
        # uniquely matches published vertex 0 — unique but WRONG.
        assert reidentification_rate(original, published) == 0.0

    def test_obfuscation_reduces_reidentification(self):
        """Sequential uncertain releases must leak less than plain ones."""
        from repro.core.search import obfuscate

        g = erdos_renyi(60, 0.12, seed=0)
        plain_trails = degree_trails([g, g])
        plain_rate = reidentification_rate(plain_trails, plain_trails)

        res1 = obfuscate(g, k=3, eps=0.2, seed=1, attempts=2, delta=0.05)
        res2 = obfuscate(g, k=3, eps=0.2, seed=2, attempts=2, delta=0.05)
        assert res1.success and res2.success
        published = expected_degree_trails([res1.uncertain, res2.uncertain])
        obf_rate = reidentification_rate(plain_trails, published)
        assert obf_rate <= plain_rate

    def test_longer_trails_more_unique(self):
        rng = np.random.default_rng(3)
        graphs = []
        edges = set(erdos_renyi(80, 0.06, seed=4).edges())
        for step in range(4):
            for _ in range(12):
                u, v = int(rng.integers(80)), int(rng.integers(80))
                if u != v:
                    edges.add((min(u, v), max(u, v)))
            graphs.append(Graph.from_edges(80, edges))
        short = trail_uniqueness_rate(degree_trails(graphs[:1]))
        long = trail_uniqueness_rate(degree_trails(graphs))
        assert long >= short


class TestUniquenessRate:
    def test_all_identical_zero(self):
        trails = np.ones((5, 3))
        assert trail_uniqueness_rate(trails) == 0.0

    def test_all_distinct_one(self):
        trails = np.arange(12, dtype=float).reshape(4, 3)
        assert trail_uniqueness_rate(trails) == 1.0

    def test_empty(self):
        assert trail_uniqueness_rate(np.zeros((0, 2))) == 0.0
