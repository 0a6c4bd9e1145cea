"""Tests for θ-commonness/uniqueness (Definition 3, Equation 7)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.uniqueness import (
    degree_commonness,
    degree_uniqueness,
    gaussian_kernel,
    pair_uniqueness,
)


class TestGaussianKernel:
    def test_zero_distance_is_one(self):
        assert gaussian_kernel(np.array([0.0]), 2.0)[0] == pytest.approx(1.0)

    def test_decreasing_in_distance(self):
        vals = gaussian_kernel(np.array([0.0, 1.0, 2.0, 5.0]), 1.5)
        assert (np.diff(vals) < 0).all()

    def test_theta_zero_is_indicator(self):
        vals = gaussian_kernel(np.array([0.0, 0.5, 1.0]), 0.0)
        assert list(vals) == [1.0, 0.0, 0.0]

    def test_negative_theta_rejected(self):
        with pytest.raises(ValueError):
            gaussian_kernel(np.array([1.0]), -0.1)

    def test_wider_theta_flatter(self):
        d = np.array([3.0])
        assert gaussian_kernel(d, 5.0)[0] > gaussian_kernel(d, 1.0)[0]


class TestDegreeCommonness:
    def test_theta_zero_counts_exact_matches(self):
        degrees = np.array([1, 1, 1, 2, 5])
        c = degree_commonness(degrees, 0.0)
        assert c[1] == pytest.approx(3.0)
        assert c[2] == pytest.approx(1.0)
        assert c[5] == pytest.approx(1.0)
        assert c[3] == pytest.approx(0.0)

    def test_smoothing_spreads_mass(self):
        degrees = np.array([1, 1, 1, 2])
        c = degree_commonness(degrees, 1.0)
        # degree 2's commonness now borrows from the three degree-1 vertices
        assert c[2] > 1.0

    def test_attained_degree_at_least_one(self):
        rng = np.random.default_rng(0)
        degrees = rng.integers(0, 20, size=50)
        for theta in (0.0, 0.5, 3.0):
            c = degree_commonness(degrees, theta)
            for d in np.unique(degrees):
                assert c[d] >= 1.0 - 1e-12

    def test_total_mass_bounded_by_n(self):
        degrees = np.array([0, 1, 2, 3, 4])
        c = degree_commonness(degrees, 2.0)
        assert (c <= 5.0 + 1e-9).all()

    def test_empty_input(self):
        assert degree_commonness(np.array([], dtype=int), 1.0).size == 0

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            degree_commonness(np.array([-1]), 1.0)


class TestDegreeUniqueness:
    def test_rare_degree_more_unique(self):
        degrees = np.array([1] * 10 + [50])
        u = degree_uniqueness(degrees, 0.5)
        assert u[-1] > u[0]

    def test_bounds(self):
        degrees = np.array([2, 2, 3, 7])
        u = degree_uniqueness(degrees, 1.0)
        assert (u > 0).all()
        assert (u <= 1.0 + 1e-12).all()

    def test_identical_degrees_identical_uniqueness(self):
        degrees = np.array([4, 4, 4, 4])
        u = degree_uniqueness(degrees, 0.7)
        assert np.allclose(u, u[0])

    @given(st.floats(min_value=0.0, max_value=5.0))
    def test_any_theta_finite(self, theta):
        degrees = np.array([0, 1, 1, 3, 8])
        u = degree_uniqueness(degrees, theta)
        assert np.isfinite(u).all()


class TestCommonnessDefinition:
    @pytest.mark.parametrize("theta", [0.0, 1.3, 4.0])
    def test_matches_pairwise_definition(self, theta):
        """C_θ(P(v)) = Σ_u K_θ(|P(u) − P(v)|), summed pair by pair."""
        degrees = np.array([1, 2, 2, 5, 7, 7, 7, 12])
        pairwise = gaussian_kernel(
            np.abs(degrees[:, None] - degrees[None, :]), theta
        ).sum(axis=1)
        assert np.allclose(degree_commonness(degrees, theta)[degrees], pairwise)


class TestRedistribution:
    def test_pair_uniqueness_is_mean_of_endpoints(self):
        vu = np.array([0.1, 0.5, 0.9])
        us = np.array([0, 1])
        vs = np.array([2, 2])
        pu = pair_uniqueness(vu, us, vs)
        assert pu[0] == pytest.approx(0.5)
        assert pu[1] == pytest.approx(0.7)
