"""Tests for world-sampling estimators and Hoeffding bounds (§6.1)."""

import math

import numpy as np
import pytest

from repro.stats.degree import average_degree, num_edges
from repro.stats.sampling import (
    SampleSummary,
    hoeffding_error_probability,
    hoeffding_sample_size,
)
from repro.uncertain.graph import UncertainGraph
from repro.worlds import WorldStatisticsEstimator, estimate_statistic


class TestHoeffding:
    def test_lemma2_formula(self):
        """2·exp(−2ε²r/(b−a)²) literally."""
        val = hoeffding_error_probability(0.1, 100, 0.0, 1.0)
        assert val == pytest.approx(2 * math.exp(-2 * 0.01 * 100))

    def test_capped_at_one(self):
        assert hoeffding_error_probability(1e-6, 1, 0.0, 1.0) == 1.0

    def test_corollary1_inverts_lemma2(self):
        eps, delta, a, b = 0.05, 0.01, 0.0, 1.0
        r = hoeffding_sample_size(eps, delta, a, b)
        assert hoeffding_error_probability(eps, r, a, b) <= delta
        assert hoeffding_error_probability(eps, r - 1, a, b) > delta

    def test_clustering_coefficient_example(self):
        """§6.4: r = ln(2/δ)/(2ε²) for a statistic in [0, 1]."""
        r = hoeffding_sample_size(0.1, 0.05, 0.0, 1.0)
        assert r == math.ceil(math.log(2 / 0.05) / (2 * 0.01))

    def test_wider_range_needs_more_samples(self):
        small = hoeffding_sample_size(0.1, 0.05, 0.0, 1.0)
        large = hoeffding_sample_size(0.1, 0.05, 0.0, 10.0)
        assert large == pytest.approx(100 * small, rel=0.01)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_invalid_epsilon(self, bad):
        with pytest.raises(ValueError):
            hoeffding_sample_size(bad, 0.1, 0, 1)

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            hoeffding_sample_size(0.1, 1.5, 0, 1)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            hoeffding_error_probability(0.1, 10, 1.0, 1.0)


class TestSampleSummary:
    def test_moments(self):
        s = SampleSummary(name="x", values=np.array([1.0, 2.0, 3.0]))
        assert s.mean == 2.0
        assert s.std == pytest.approx(1.0)
        assert s.sem == pytest.approx(1.0 / math.sqrt(3))
        assert s.relative_sem == pytest.approx(s.sem / 2.0)

    def test_relative_error(self):
        s = SampleSummary(name="x", values=np.array([9.0, 11.0]))
        assert s.relative_error(20.0) == pytest.approx(0.5)

    def test_zero_reference(self):
        s = SampleSummary(name="x", values=np.array([0.0, 0.0]))
        assert s.relative_error(0.0) == 0.0

    def test_single_sample(self):
        s = SampleSummary(name="x", values=np.array([5.0]))
        assert s.std == 0.0 and s.sem == 0.0


class TestEstimator:
    @pytest.fixture()
    def ug(self):
        return UncertainGraph.from_pairs(
            6, [(0, 1, 0.5), (1, 2, 0.25), (2, 3, 1.0), (4, 5, 0.75)]
        )

    def test_mean_matches_exact_expectation(self, ug):
        """E[S_NE] = Σ p(e) = 2.5; the sampler must agree within Hoeffding."""
        summary = estimate_statistic(ug, num_edges, worlds=4000, seed=0)
        assert summary.mean == pytest.approx(2.5, abs=0.08)

    def test_hoeffding_bound_holds_empirically(self, ug):
        """Run many small estimations; large deviations must be rarer than
        the Lemma-2 bound."""
        exact = 2.5
        r, eps = 30, 0.5
        bound = hoeffding_error_probability(eps, r, 0.0, 4.0)
        rng = np.random.default_rng(1)
        violations = 0
        trials = 300
        for _ in range(trials):
            summary = estimate_statistic(ug, num_edges, worlds=r, seed=rng)
            if abs(summary.mean - exact) >= eps:
                violations += 1
        assert violations / trials <= bound

    def test_multiple_statistics(self, ug):
        est = WorldStatisticsEstimator(
            ug, {"S_NE": num_edges, "S_AD": average_degree}
        )
        out = est.run(worlds=50, seed=2)
        assert set(out) == {"S_NE", "S_AD"}
        assert out["S_AD"].mean == pytest.approx(out["S_NE"].mean / 3, rel=1e-9)

    def test_zero_worlds_rejected(self, ug):
        est = WorldStatisticsEstimator(ug, {"S_NE": num_edges})
        with pytest.raises(ValueError):
            est.run(worlds=0)

    def test_deterministic(self, ug):
        a = estimate_statistic(ug, num_edges, worlds=10, seed=5)
        b = estimate_statistic(ug, num_edges, worlds=10, seed=5)
        assert np.array_equal(a.values, b.values)
