"""Tests for Algorithm 2 (GenerateObfuscation)."""

import numpy as np
import pytest

from repro.core.generate import (
    generate_obfuscation,
    select_excluded_vertices,
)
from repro.core.obfuscation_check import is_k_eps_obfuscation
from repro.core.types import ObfuscationParams
from repro.graphs.generators import erdos_renyi, powerlaw_cluster
from repro.graphs.graph import Graph


@pytest.fixture(scope="module")
def er_graph():
    return erdos_renyi(80, 0.12, seed=3)


class TestExcludedVertices:
    def test_size_is_ceil_half_eps_n(self):
        uniq = np.linspace(0.1, 1.0, 100)
        assert len(select_excluded_vertices(uniq, 0.1, 100)) == 5
        assert len(select_excluded_vertices(uniq, 0.01, 100)) == 1
        assert len(select_excluded_vertices(uniq, 0.0, 100)) == 0

    def test_picks_most_unique(self):
        uniq = np.array([0.1, 0.9, 0.2, 0.8, 0.3])
        h = select_excluded_vertices(uniq, 0.8, 5)  # ceil(2) = 2
        assert set(h) == {1, 3}

    def test_ties_broken_by_id(self):
        uniq = np.ones(6)
        h = select_excluded_vertices(uniq, 0.4, 6)  # ceil(1.2) = 2
        assert list(h) == [0, 1]


class TestGenerateObfuscation:
    def test_candidate_set_size(self, er_graph):
        params = ObfuscationParams(k=2, eps=0.3, c=2.0, attempts=1)
        out = generate_obfuscation(er_graph, 0.2, params, seed=0)
        if out.success:
            assert out.uncertain.num_candidate_pairs == round(2.0 * er_graph.num_edges)

    def test_probabilities_in_unit_interval(self, er_graph):
        params = ObfuscationParams(k=2, eps=0.3, attempts=1)
        out = generate_obfuscation(er_graph, 0.3, params, seed=1)
        assert out.success
        for _, _, p in out.uncertain.candidate_pairs():
            assert 0.0 <= p <= 1.0

    def test_output_verifies_independently(self, er_graph):
        params = ObfuscationParams(k=3, eps=0.2, attempts=2)
        out = generate_obfuscation(er_graph, 0.4, params, seed=2)
        assert out.success
        assert out.eps_achieved <= 0.2
        assert is_k_eps_obfuscation(out.uncertain, er_graph, 3, 0.2)

    def test_failure_returns_infinity(self, star5):
        """k beyond what a 5-vertex star can support must fail."""
        params = ObfuscationParams(k=5, eps=0.0, attempts=2)
        out = generate_obfuscation(star5, 0.1, params, seed=0)
        assert not out.success
        assert out.eps_achieved == float("inf")
        assert out.uncertain is None

    def test_sigma_zero_keeps_graph_nearly_intact(self, er_graph):
        """σ = 0 draws r_e = 0, so p = 1 on kept edges, p = 0 on non-edges
        (up to the q-fraction of white noise and E_C removals)."""
        params = ObfuscationParams(k=1, eps=0.5, q=0.0, attempts=1)
        out = generate_obfuscation(er_graph, 0.0, params, seed=4)
        assert out.success  # k=1 is trivially satisfied
        for u, v, p in out.uncertain.candidate_pairs():
            assert p in (0.0, 1.0)
            if p == 1.0:
                assert er_graph.has_edge(u, v)

    def test_negative_sigma_rejected(self, er_graph):
        params = ObfuscationParams(k=2, eps=0.2)
        with pytest.raises(ValueError):
            generate_obfuscation(er_graph, -1.0, params)

    def test_empty_graph_rejected(self):
        params = ObfuscationParams(k=2, eps=0.2)
        with pytest.raises(ValueError):
            generate_obfuscation(Graph(5), 0.1, params)

    def test_deterministic_given_seed(self, er_graph):
        params = ObfuscationParams(k=2, eps=0.3, attempts=1)
        a = generate_obfuscation(er_graph, 0.2, params, seed=9)
        b = generate_obfuscation(er_graph, 0.2, params, seed=9)
        assert a.eps_achieved == b.eps_achieved
        if a.success:
            pairs_a = sorted(a.uncertain.candidate_pairs())
            pairs_b = sorted(b.uncertain.candidate_pairs())
            assert pairs_a == pairs_b

    def test_external_excluded_set_respected(self, er_graph):
        params = ObfuscationParams(k=2, eps=0.3, attempts=1)
        hubs = np.argsort(er_graph.degrees())[-2:]
        out = generate_obfuscation(er_graph, 0.2, params, seed=0, excluded=hubs)
        if out.success:
            # excluded vertices receive no NEW candidate pairs
            for u, w, _ in out.uncertain.candidate_pairs():
                if u in hubs or w in hubs:
                    assert er_graph.has_edge(u, w)

    def test_true_edges_keep_high_probability_small_sigma(self):
        g = powerlaw_cluster(120, 3, 0.4, seed=0)
        params = ObfuscationParams(k=1, eps=0.5, q=0.0, attempts=1)
        out = generate_obfuscation(g, 0.01, params, seed=1)
        kept = [
            p
            for u, v, p in out.uncertain.candidate_pairs()
            if g.has_edge(u, v)
        ]
        # σ(e) ∝ U_σ(e) keeps true edges near-certain at small σ.
        assert np.mean(kept) > 0.93

    def test_dense_graph_unreachable_target_rejected(self):
        complete = Graph.from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
        params = ObfuscationParams(k=1, eps=0.4, c=3.0, attempts=1)
        with pytest.raises(ValueError, match="reduce c"):
            generate_obfuscation(complete, 0.1, params, seed=0)

    def test_stochastic_stall_counts_as_failed_attempt(self, star5):
        """Feasible-but-absorbing candidate targets fail gracefully."""
        params = ObfuscationParams(k=5, eps=0.0, attempts=1)
        out = generate_obfuscation(star5, 0.1, params, seed=0)
        assert not out.success
