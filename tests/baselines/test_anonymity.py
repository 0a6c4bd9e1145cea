"""Tests for anonymity levels of randomized releases (Figure-4 machinery)."""

import math

import numpy as np
import pytest
from scipy import stats

from repro.baselines.anonymity import (
    _entropy_from_grouped,
    binomial_pmf,
    cumulative_anonymity_curve,
    original_anonymity_levels,
    perturbation_transition,
    randomization_anonymity_levels,
    randomization_anonymity_levels_from_observed,
    randomization_transition_matrix,
    sparsification_transition,
)
from repro.baselines.randomization import addition_probability
from repro.baselines.randomization import random_perturbation, random_sparsification
from repro.graphs.generators import erdos_renyi
from repro.graphs.graph import Graph


class TestBinomialPmf:
    def test_sums_to_one(self):
        for n, p in [(0, 0.3), (5, 0.5), (40, 0.01), (100, 0.97)]:
            assert binomial_pmf(n, p).sum() == pytest.approx(1.0)

    def test_against_scipy(self):
        for n, p in [(7, 0.4), (30, 0.1)]:
            ours = binomial_pmf(n, p)
            theirs = stats.binom.pmf(np.arange(n + 1), n, p)
            assert np.allclose(ours, theirs)

    def test_edge_cases(self):
        assert binomial_pmf(5, 0.0)[0] == 1.0
        assert binomial_pmf(5, 1.0)[5] == 1.0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial_pmf(-1, 0.5)


class TestTransitions:
    def test_sparsification_is_binomial(self):
        row = sparsification_transition(6, 0.3, 10)
        assert row.sum() == pytest.approx(1.0)
        assert np.allclose(row[:7], binomial_pmf(6, 0.7))
        assert (row[7:] == 0).all()

    def test_sparsification_cannot_grow_degree(self):
        row = sparsification_transition(3, 0.5, 10)
        assert (row[4:] == 0).all()

    def test_perturbation_can_grow_degree(self):
        row = perturbation_transition(3, 0.5, 0.05, 50, 10)
        assert row[5] > 0

    def test_perturbation_row_mass(self):
        row = perturbation_transition(4, 0.3, 0.001, 200, 199)
        assert row.sum() == pytest.approx(1.0, abs=1e-6)

    def test_perturbation_zero_addition_matches_sparsification(self):
        a = perturbation_transition(5, 0.4, 0.0, 100, 20)
        b = sparsification_transition(5, 0.4, 20)
        assert np.allclose(a, b)


class TestOriginalLevels:
    def test_counts_same_degree_vertices(self, star5):
        levels = original_anonymity_levels(star5)
        assert levels[0] == 1.0  # unique hub
        assert (levels[1:] == 4.0).all()

    def test_regular_graph_full_anonymity(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert (original_anonymity_levels(g) == 4.0).all()


class TestRandomizationLevels:
    @pytest.fixture(scope="class")
    def graph(self):
        return erdos_renyi(150, 0.06, seed=1)

    def test_levels_positive_and_bounded(self, graph):
        published = random_sparsification(graph, 0.3, seed=0)
        levels = randomization_anonymity_levels(graph, published, "sparsification", 0.3)
        assert (levels >= 0).all()
        assert (levels <= graph.num_vertices + 1e-6).all()

    def test_more_noise_more_anonymity(self, graph):
        """Median anonymity grows with the perturbation strength."""
        meds = []
        for p in (0.05, 0.6):
            published = random_perturbation(graph, p, seed=2)
            levels = randomization_anonymity_levels(
                graph, published, "perturbation", p
            )
            meds.append(np.median(levels))
        assert meds[1] > meds[0]

    def test_unknown_scheme_rejected(self, graph):
        published = random_sparsification(graph, 0.3, seed=0)
        with pytest.raises(ValueError, match="unknown scheme"):
            randomization_anonymity_levels(graph, published, "swapping", 0.3)

    def test_entropy_grouping_consistency(self, graph):
        """Vertices with the same original degree share a level."""
        published = random_sparsification(graph, 0.2, seed=3)
        levels = randomization_anonymity_levels(graph, published, "sparsification", 0.2)
        degrees = graph.degrees()
        for d in np.unique(degrees):
            vals = levels[degrees == d]
            assert np.allclose(vals, vals[0])


class TestTransitionMatrixBatch:
    """The vectorised (Ω, d_max) build against the per-ω scalar oracle."""

    def test_sparsification_rows_match_scalar(self):
        omegas = np.array([0, 1, 3, 7, 12])
        T = randomization_transition_matrix(
            omegas, "sparsification", 0.35, n=50, max_observed=10
        )
        for i, w in enumerate(omegas):
            np.testing.assert_allclose(
                T[i], sparsification_transition(int(w), 0.35, 10), atol=1e-14
            )

    @pytest.mark.parametrize("p,p_add", [(0.3, 0.002), (0.9, 0.05), (0.1, 0.0)])
    def test_perturbation_rows_match_scalar(self, p, p_add):
        omegas = np.array([0, 2, 5, 11])
        T = randomization_transition_matrix(
            omegas, "perturbation", p, p_add=p_add, n=80, max_observed=20
        )
        for i, w in enumerate(omegas):
            oracle = perturbation_transition(int(w), p, p_add, 80, 20)
            np.testing.assert_allclose(T[i], oracle, atol=1e-13)

    def test_degenerate_probabilities(self):
        omegas = np.array([2, 4])
        none_kept = randomization_transition_matrix(
            omegas, "sparsification", 1.0, n=10, max_observed=5
        )
        assert (none_kept[:, 0] == 1.0).all()
        all_kept = randomization_transition_matrix(
            omegas, "sparsification", 0.0, n=10, max_observed=5
        )
        assert all_kept[0, 2] == 1.0 and all_kept[1, 4] == 1.0

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            randomization_transition_matrix(
                np.array([1]), "swapping", 0.5, n=10, max_observed=5
            )


class TestVectorisedLevelsOracle:
    """The one-pass entropy evaluation against the former per-ω loop."""

    @pytest.mark.parametrize("scheme,p", [("sparsification", 0.2), ("perturbation", 0.4)])
    def test_levels_match_scalar_loop(self, scheme, p):
        graph = erdos_renyi(120, 0.07, seed=3)
        observed = np.maximum(graph.degrees() - 1, 0)
        levels = randomization_anonymity_levels_from_observed(
            graph, observed, scheme, p
        )
        n = graph.num_vertices
        max_obs = int(observed.max())
        counts = np.bincount(observed, minlength=max_obs + 1).astype(np.float64)
        p_add = p * addition_probability(graph)
        oracle = []
        for w in graph.degrees():
            w = int(w)
            row = (
                sparsification_transition(w, p, max_obs)
                if scheme == "sparsification"
                else perturbation_transition(w, p, p_add, n, max_obs)
            )
            oracle.append(2.0 ** _entropy_from_grouped(row, counts))
        np.testing.assert_allclose(levels, oracle, rtol=1e-12)


class TestCumulativeCurve:
    def test_monotone_nondecreasing(self):
        levels = np.array([1.0, 2.5, 2.5, 10.0])
        curve = cumulative_anonymity_curve(levels, np.arange(1, 12))
        assert (np.diff(curve) >= 0).all()

    def test_counts(self):
        levels = np.array([1.0, 2.0, 5.0])
        curve = cumulative_anonymity_curve(levels, np.array([1.0, 2.0, 4.0, 5.0]))
        assert list(curve) == [1, 2, 2, 3]

    def test_matches_paper_semantics(self, star5):
        """'number of vertices that have obfuscation level <= k'."""
        levels = original_anonymity_levels(star5)
        curve = cumulative_anonymity_curve(levels, np.array([1.0, 3.0, 4.0]))
        assert list(curve) == [1, 1, 5]
