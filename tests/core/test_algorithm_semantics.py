"""Fine-grained semantic checks of Algorithm 2's moving parts.

Each test pins one sentence of §5.3's prose to observable behaviour of
the implementation, so a future refactor cannot silently diverge from
the paper.
"""

import numpy as np
import pytest

from repro.core.generate import generate_obfuscation
from repro.core.types import ObfuscationParams
from repro.graphs.generators import powerlaw_cluster


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster(250, 3, 0.4, seed=0)


class TestCandidateSetSemantics:
    def test_most_original_edges_stay_in_ec(self, graph):
        """§5.3: 'the resulting set E_C includes most of the edges in E'."""
        params = ObfuscationParams(k=1, eps=0.5, attempts=1)
        out = generate_obfuscation(graph, 0.1, params, seed=1)
        ec_pairs = {(a, b) for a, b, _ in out.uncertain.candidate_pairs()}
        in_ec = sum(1 for edge in graph.edges() if edge in ec_pairs)
        assert in_ec > 0.9 * graph.num_edges

    def test_removed_edges_become_certain_non_edges(self, graph):
        """A true edge dropped from E_C has p = 0 — full deletion."""
        params = ObfuscationParams(k=1, eps=0.5, attempts=1)
        out = generate_obfuscation(graph, 0.1, params, seed=2)
        ec_pairs = {(u, v) for u, v, _ in out.uncertain.candidate_pairs()}
        removed = [e for e in graph.edges() if e not in ec_pairs]
        for u, v in removed:
            assert out.uncertain.probability(u, v) == 0.0

    def test_injected_pairs_are_original_non_edges(self, graph):
        params = ObfuscationParams(k=1, eps=0.5, attempts=1)
        out = generate_obfuscation(graph, 0.1, params, seed=3)
        injected = [
            (u, v)
            for u, v, _ in out.uncertain.candidate_pairs()
            if not graph.has_edge(u, v)
        ]
        assert injected  # c = 2 forces ~|E| additions
        assert len(injected) >= graph.num_edges // 2


class TestPerturbationSemantics:
    def test_edge_probability_is_one_minus_r(self, graph):
        """Line 19: p(e) = 1 − r_e for true edges, r_e for non-edges —
        with σ → 0 and q = 0 the split is exact (r_e = 0)."""
        params = ObfuscationParams(k=1, eps=0.5, q=0.0, attempts=1)
        out = generate_obfuscation(graph, 0.0, params, seed=4)
        for u, v, p in out.uncertain.candidate_pairs():
            assert p == (1.0 if graph.has_edge(u, v) else 0.0)

    def test_white_noise_fraction_roughly_q(self, graph):
        """Lines 15-18: a q-fraction of pairs gets uniform perturbations.
        With σ = 0 the R_σ draws are exactly 0/1, so any interior
        probability must come from the white-noise branch."""
        params = ObfuscationParams(k=1, eps=0.5, q=0.2, attempts=1)
        out = generate_obfuscation(graph, 0.0, params, seed=5)
        probs = np.array([p for _, _, p in out.uncertain.candidate_pairs()])
        interior = ((probs > 1e-12) & (probs < 1 - 1e-12)).mean()
        assert interior == pytest.approx(0.2, abs=0.05)

    def test_sigma_scales_perturbation_mass(self, graph):
        """Larger σ moves true-edge probabilities further from 1."""
        params = ObfuscationParams(k=1, eps=0.5, q=0.0, attempts=1)
        means = []
        for sigma in (0.01, 0.3):
            out = generate_obfuscation(graph, sigma, params, seed=6)
            kept = [
                p
                for u, v, p in out.uncertain.candidate_pairs()
                if graph.has_edge(u, v)
            ]
            means.append(np.mean(kept))
        assert means[0] > means[1]


class TestExclusionSemantics:
    def test_excluded_vertices_receive_no_injected_pairs(self, graph):
        """Lines 8-9 sample u, v from V \\ H only, so every *new* pair
        avoids H (original edges incident to H may remain in E_C)."""
        params = ObfuscationParams(k=1, eps=0.2, attempts=1)
        hubs = np.argsort(graph.degrees())[-5:]
        out = generate_obfuscation(
            graph, 0.1, params, seed=7, excluded=hubs
        )
        hub_set = set(int(h) for h in hubs)
        for u, v, _ in out.uncertain.candidate_pairs():
            if not graph.has_edge(u, v):
                assert u not in hub_set and v not in hub_set
