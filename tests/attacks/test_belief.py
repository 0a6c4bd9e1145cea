"""Tests for the a-posteriori belief measure and its entropy dominance."""

import numpy as np
import pytest

from repro.attacks.belief import belief_level_from_column, belief_obfuscation_levels
from repro.core.obfuscation_check import compute_degree_posterior


class TestBeliefLevel:
    def test_uniform_column(self):
        assert belief_level_from_column(np.array([0.25] * 4)) == pytest.approx(4.0)

    def test_point_mass(self):
        assert belief_level_from_column(np.array([0.0, 1.0, 0.0])) == pytest.approx(1.0)

    def test_unnormalised_input_ok(self):
        assert belief_level_from_column(np.array([2.0, 2.0])) == pytest.approx(2.0)

    def test_zero_column(self):
        assert belief_level_from_column(np.zeros(5)) == 0.0


class TestDominance:
    def test_entropy_level_dominates_belief_level(self, fig1a, fig1b):
        """Bonchi et al.: 2^H(Y) >= (max Y)^-1 always."""
        post = compute_degree_posterior(fig1b, method="exact")
        degrees = fig1a.degrees()
        entropy_levels = post.obfuscation_levels(degrees)
        belief_levels = belief_obfuscation_levels(post, degrees)
        assert (entropy_levels + 1e-9 >= belief_levels).all()

    def test_dominance_on_random_posteriors(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            col = rng.random(12)
            entropy_level = 2 ** (
                -(col / col.sum() * np.log2(col / col.sum())).sum()
            )
            assert entropy_level + 1e-9 >= belief_level_from_column(col)

    def test_paper_example_belief_values(self, fig1a, fig1b):
        """Y_3 has max 0.9 → belief level 1/0.9 ≈ 1.11."""
        post = compute_degree_posterior(fig1b, method="exact")
        levels = belief_obfuscation_levels(post, fig1a.degrees())
        assert levels[0] == pytest.approx(1 / 0.9, abs=1e-2)


class TestBeliefKObfuscation:
    @pytest.mark.parametrize("k", [2, 3])
    def test_belief_criterion_stricter_than_entropy(self, fig1a, fig1b, k):
        """Any belief-k-obfuscated vertex is entropy-k-obfuscated."""
        post = compute_degree_posterior(fig1b, method="exact")
        degrees = fig1a.degrees()
        belief_mask = belief_obfuscation_levels(post, degrees) >= k
        entropy_mask = post.k_obfuscated(degrees, k)
        assert (entropy_mask | ~belief_mask).all()
