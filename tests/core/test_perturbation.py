"""Tests for the truncated-normal perturbation distribution (Equation 6).

The inverse-CDF sampler is tested in ``test_perturbation_stream.py``.
"""

import numpy as np
import pytest

from repro.core.perturbation import (
    truncated_normal_cdf,
    truncated_normal_mean,
    truncated_normal_pdf,
)


class TestDensity:
    def test_integrates_to_one(self):
        xs = np.linspace(0, 1, 20001)
        for sigma in (0.1, 0.5, 2.0):
            pdf = truncated_normal_pdf(xs, sigma)
            assert np.trapezoid(pdf, xs) == pytest.approx(1.0, abs=1e-4)

    def test_zero_outside_unit_interval(self):
        pdf = truncated_normal_pdf(np.array([-0.5, 1.5]), 0.3)
        assert (pdf == 0).all()

    def test_monotone_decreasing(self):
        xs = np.linspace(0, 1, 50)
        pdf = truncated_normal_pdf(xs, 0.4)
        assert (np.diff(pdf) <= 0).all()

    def test_sigma_zero_rejected(self):
        with pytest.raises(ValueError):
            truncated_normal_pdf(np.array([0.5]), 0.0)

    def test_cdf_endpoints(self):
        assert truncated_normal_cdf(np.array([0.0]), 0.5)[0] == pytest.approx(0.0)
        assert truncated_normal_cdf(np.array([1.0]), 0.5)[0] == pytest.approx(1.0)

    def test_cdf_monotone(self):
        xs = np.linspace(0, 1, 30)
        cdf = truncated_normal_cdf(xs, 0.7)
        assert (np.diff(cdf) >= 0).all()


class TestMean:
    def test_small_sigma_half_normal_limit(self):
        """For σ ≪ 1 truncation is irrelevant: mean → σ·√(2/π)."""
        sigma = 0.01
        assert truncated_normal_mean(sigma) == pytest.approx(
            sigma * np.sqrt(2 / np.pi), rel=1e-6
        )

    def test_large_sigma_uniform_limit(self):
        """For σ ≫ 1 the density flattens: mean → 1/2."""
        assert truncated_normal_mean(100.0) == pytest.approx(0.5, abs=1e-3)

    def test_monotone_in_sigma(self):
        means = [truncated_normal_mean(s) for s in (0.05, 0.2, 1.0, 5.0)]
        assert means == sorted(means)
