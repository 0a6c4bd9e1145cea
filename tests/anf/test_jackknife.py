"""Tests for jackknife standard errors."""

import math

import numpy as np
import pytest

from repro.anf.jackknife import jackknife


def _jackknife_mean(values):
    return jackknife(values, lambda xs: float(np.mean(xs)))


class TestJackknife:
    def test_mean_reduces_to_sem(self):
        """Jackknife SE of the mean equals the classic s/√n."""
        values = [3.0, 5.0, 7.0, 9.0, 11.0]
        est, se = _jackknife_mean(values)
        assert est == pytest.approx(np.mean(values))
        assert se == pytest.approx(np.std(values, ddof=1) / math.sqrt(len(values)))

    def test_constant_samples_zero_se(self):
        est, se = _jackknife_mean([4.0] * 10)
        assert est == 4.0
        assert se == pytest.approx(0.0)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            jackknife([1.0], np.mean)

    def test_generic_statistic(self):
        values = [1.0, 2.0, 3.0, 100.0]
        est, se = jackknife(values, lambda xs: float(np.median(xs)))
        assert est == pytest.approx(2.5)
        assert se > 0

    def test_scale_equivariance(self):
        values = [1.0, 2.0, 4.0, 8.0]
        _, se1 = _jackknife_mean(values)
        _, se2 = _jackknife_mean([10 * v for v in values])
        assert se2 == pytest.approx(10 * se1)

    def test_accepts_arbitrary_sample_objects(self):
        samples = [np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([5.0, 6.0])]
        est, se = jackknife(samples, lambda xs: float(np.mean([x.sum() for x in xs])))
        assert est == pytest.approx(7.0)
        assert se > 0
