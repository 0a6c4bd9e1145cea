"""Tests for the X/Y posterior machinery and the Definition-2 checker."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.obfuscation_check import (
    DegreePosterior,
    compute_degree_posterior,
    is_k_eps_obfuscation,
    tolerance_achieved,
)
from repro.graphs.graph import Graph
from repro.uncertain.graph import UncertainGraph
from repro.worlds.batch import WorldBatch
from repro.worlds.stats_batch import degree_matrix


class TestDegreePosterior:
    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            DegreePosterior(np.zeros(4))

    def test_x_row_and_column(self, fig1b):
        post = compute_degree_posterior(fig1b, method="exact")
        assert post.matrix[0].sum() == pytest.approx(1.0)
        assert post.x_column(2)[2] == pytest.approx(0.720, abs=5e-4)

    def test_out_of_range_column_is_zero(self, fig1b):
        post = compute_degree_posterior(fig1b, method="exact")
        assert (post.x_column(99) == 0).all()
        assert post.column_entropy(99) == 0.0

    def test_y_column_unattainable_raises(self):
        ug = UncertainGraph.from_pairs(3, [(0, 1, 1.0)])
        post = compute_degree_posterior(ug, method="exact")
        with pytest.raises(ValueError, match="unattainable"):
            post.y_column(2)

    def test_y_column_normalised(self, fig1b):
        post = compute_degree_posterior(fig1b, method="exact")
        for omega in range(4):
            assert post.y_column(omega).sum() == pytest.approx(1.0)

    def test_obfuscation_entropies_shape(self, fig1a, fig1b):
        post = compute_degree_posterior(fig1b, method="exact")
        ent = post.obfuscation_entropies(fig1a.degrees())
        assert ent.shape == (4,)
        assert ent[2] == pytest.approx(ent[3])  # same original degree

    def test_entropies_share_columns_by_degree(self):
        """One column per distinct degree gives each vertex its own H(Y)."""
        rng = np.random.default_rng(0)
        post = DegreePosterior(rng.random((12, 6)))
        degrees = rng.integers(0, 8, size=12)
        expected = [post.column_entropy(int(d)) for d in degrees]
        assert np.array_equal(post.obfuscation_entropies(degrees), expected)

    def test_wrong_length_rejected(self, fig1b):
        post = compute_degree_posterior(fig1b, method="exact")
        with pytest.raises(ValueError):
            post.obfuscation_entropies(np.array([1, 2]))

    def test_levels_are_two_to_entropy(self, fig1a, fig1b):
        post = compute_degree_posterior(fig1b, method="exact")
        ent = post.obfuscation_entropies(fig1a.degrees())
        lev = post.obfuscation_levels(fig1a.degrees())
        assert np.allclose(lev, np.exp2(ent))

    def test_k_below_one_rejected(self, fig1a, fig1b):
        post = compute_degree_posterior(fig1b, method="exact")
        with pytest.raises(ValueError):
            post.k_obfuscated(fig1a.degrees(), 0.5)

    def test_k_one_always_satisfied(self, fig1a, fig1b):
        post = compute_degree_posterior(fig1b, method="exact")
        assert post.k_obfuscated(fig1a.degrees(), 1).all()


def _column(values) -> DegreePosterior:
    """A posterior whose degree-0 column holds ``values``."""
    return DegreePosterior(np.asarray(values, dtype=np.float64)[:, None])


class TestColumnEntropy:
    """``H(Y_ω)`` in bits: the column is normalised, then Shannon entropy."""

    @pytest.mark.parametrize("k", [2, 4, 8, 16])
    def test_uniform_k(self, k):
        assert _column(np.full(k, 1.0 / k)).column_entropy(0) == pytest.approx(
            math.log2(k)
        )

    def test_point_mass_is_zero(self):
        assert _column([1.0, 0.0, 0.0]).column_entropy(0) == pytest.approx(0.0)

    def test_zero_entries_ignored(self):
        assert _column([0.5, 0.5, 0.0]).column_entropy(0) == pytest.approx(1.0)

    def test_unnormalised_column_is_normalised(self):
        assert _column([2.0, 2.0]).column_entropy(0) == pytest.approx(1.0)

    def test_known_value(self):
        # H(0.9, 0.1) = -0.9 log2 0.9 - 0.1 log2 0.1
        expected = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
        assert _column([0.9, 0.1]).column_entropy(0) == pytest.approx(expected)

    @given(
        st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=40)
    )
    def test_bounds_property(self, weights):
        """0 <= H(Y) <= log2(n) for any column of n vertices."""
        h = _column(weights).column_entropy(0)
        assert -1e-9 <= h <= math.log2(len(weights)) + 1e-9

    @given(
        st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=20)
    )
    def test_permutation_invariance(self, weights):
        h1 = _column(weights).column_entropy(0)
        h2 = _column(weights[::-1]).column_entropy(0)
        assert h1 == pytest.approx(h2)


def _sampled_posterior(ug, worlds, seed):
    """X̂[v, ω]: the share of ``worlds`` sampled worlds where v has degree ω."""
    degrees = degree_matrix(WorldBatch.sample(ug, worlds, seed=seed))
    n = ug.num_vertices
    counts = np.zeros((n, n))
    np.add.at(counts, (np.broadcast_to(np.arange(n), degrees.shape), degrees), 1.0)
    return counts / worlds


class TestSampledPosterior:
    """The certified posterior against worlds drawn by the world sampler,
    which shares no code with the staircase kernel it checks."""

    def test_matches_exact_degree_posterior(self, fig1b):
        """Monte-Carlo X̂ converges to the closed-form X of §4."""
        sampled = _sampled_posterior(fig1b, 6000, seed=0)
        exact = compute_degree_posterior(fig1b, method="exact")
        for v in range(4):
            for omega in range(4):
                assert sampled[v, omega] == pytest.approx(
                    exact.matrix[v, omega], abs=0.03
                )

    def test_entropies_match_exact(self, fig1a, fig1b):
        sampled = DegreePosterior(_sampled_posterior(fig1b, 6000, seed=1))
        exact = compute_degree_posterior(fig1b, method="exact")
        degrees = fig1a.degrees()
        sampled_ent = sampled.obfuscation_entropies(degrees)
        exact_ent = exact.obfuscation_entropies(degrees)
        assert np.allclose(sampled_ent, exact_ent, atol=0.1)


    def test_rows_are_distributions(self, fig1b):
        sampled = _sampled_posterior(fig1b, 200, seed=2)
        assert np.allclose(sampled.sum(axis=1), 1.0)

    def test_deterministic(self, fig1b):
        a = _sampled_posterior(fig1b, 30, seed=9)
        b = _sampled_posterior(fig1b, 30, seed=9)
        assert np.array_equal(a, b)

    def test_tolerance_achieved(self, fig1a, fig1b):
        """Example 2: only v1 falls short of k = 3 under the sampled X̂ too."""
        sampled = DegreePosterior(_sampled_posterior(fig1b, 4000, seed=5))
        eps = tolerance_achieved(None, fig1a.degrees(), 3, posterior=sampled)
        assert eps == pytest.approx(0.25, abs=0.01)


class TestComputePosterior:
    def test_width_override(self, fig1b):
        post = compute_degree_posterior(fig1b, method="exact", width=2)
        assert post.width == 2

    def test_methods_agree_on_small_supports(self, fig1b):
        exact = compute_degree_posterior(fig1b, method="exact")
        auto = compute_degree_posterior(fig1b, method="auto")
        assert np.allclose(exact.matrix, auto.matrix)

    def test_normal_method_rows_sum_to_one(self, fig1b):
        post = compute_degree_posterior(fig1b, method="normal")
        assert np.allclose(post.matrix.sum(axis=1), 1.0, atol=1e-6)

    def test_entropy_upper_bound(self, fig1b):
        """H(Y_ω) ≤ log2 n always."""
        post = compute_degree_posterior(fig1b, method="exact")
        for omega in range(post.width):
            assert post.column_entropy(omega) <= math.log2(4) + 1e-9


class TestToleranceAchieved:
    def test_fully_obfuscated_is_zero(self):
        """A 4-cycle lifted to certainty: both degrees... all deg 2, count 4."""
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        ug = UncertainGraph.from_graph(g)
        assert tolerance_achieved(ug, g.degrees(), k=4) == pytest.approx(0.0)

    def test_nothing_obfuscated_is_one(self, star5):
        ug = UncertainGraph.from_graph(star5)
        # k=5 needs entropy >= log2 5; max possible with 4 leaves is 2 bits
        assert tolerance_achieved(ug, star5.degrees(), k=5) == pytest.approx(1.0)

    def test_monotone_in_k(self, fig1a, fig1b):
        degrees = fig1a.degrees()
        values = [tolerance_achieved(fig1b, degrees, k) for k in (1, 2, 3, 4, 8)]
        assert values == sorted(values)

    def test_posterior_reuse(self, fig1a, fig1b):
        degrees = fig1a.degrees()
        post = compute_degree_posterior(fig1b, method="exact")
        a = tolerance_achieved(fig1b, degrees, 3, posterior=post)
        b = tolerance_achieved(fig1b, degrees, 3)
        assert a == b


class TestIsKEpsObfuscation:
    def test_accepts_graph_or_degrees(self, fig1a, fig1b):
        assert is_k_eps_obfuscation(fig1b, fig1a, 3, 0.25)
        assert is_k_eps_obfuscation(fig1b, fig1a.degrees(), 3, 0.25)

    def test_certain_graph_self_check(self):
        """k-anonymity of a regular graph: every vertex has count n."""
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        ug = UncertainGraph.from_graph(g)
        assert is_k_eps_obfuscation(ug, g, k=4, eps=0.0)
        assert not is_k_eps_obfuscation(ug, g, k=5, eps=0.0)

    @pytest.mark.parametrize("eps", [-0.1, 1.0, 1.5, math.nan])
    def test_eps_outside_unit_interval_rejected(self, fig1a, fig1b, eps):
        with pytest.raises(ValueError, match="eps"):
            is_k_eps_obfuscation(fig1b, fig1a, 3, eps)
