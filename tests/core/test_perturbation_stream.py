"""Inverse-CDF sampler + counter-based pair substreams (PR 5 tentpole).

Covers the three sampler layers the ``pair_keyed`` perturbation stream
stands on:

* ``erfinv`` — the pure-NumPy Newton path pinned against SciPy where
  available and against a bisection oracle on ``math.erf`` otherwise;
* ``truncated_normal_ppf`` — moment/KS pinning against the analytic
  ``R_σ`` quantities and the σ → 0 / σ → ∞ edge regimes;
* ``pair_stream_uniforms`` — purity: a pair's draw depends only on
  ``(key, code, substream)``, never on evaluation order or on which
  other pairs are evaluated alongside it.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.degree_distribution import (
    ERF_RATIONAL_MAX_ABS_ERROR,
    erf_rational,
)
from repro.core.perturbation import (
    PAIR_SUBSTREAM_PERTURBATION,
    PAIR_SUBSTREAM_WHITE_MASK,
    PAIR_SUBSTREAM_WHITE_VALUE,
    UNIFORM_THRESHOLD,
    erfinv_array,
    erfinv_newton,
    pair_stream_uniforms,
    perturbations_from_uniforms,
    truncated_normal_cdf,
    truncated_normal_mean,
    truncated_normal_ppf,
)

try:  # pin against SciPy where available (the CI image ships NumPy only)
    from scipy import special as scipy_special
except ImportError:  # pragma: no cover
    scipy_special = None


def _erfinv_bisection(y: float) -> float:
    """High-precision scalar oracle: invert ``math.erf`` by bisection."""
    lo, hi = 0.0, 8.0
    target = abs(y)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.erf(mid) < target:
            lo = mid
        else:
            hi = mid
    return math.copysign(0.5 * (lo + hi), y)


class TestErfRational:
    def test_within_documented_bound_of_math_erf(self):
        xs = np.linspace(-8.0, 8.0, 20001)
        exact = np.array([math.erf(x) for x in xs])
        assert np.abs(erf_rational(xs) - exact).max() <= ERF_RATIONAL_MAX_ABS_ERROR

    @pytest.mark.skipif(scipy_special is None, reason="scipy not installed")
    def test_within_documented_bound_of_scipy(self):
        xs = np.linspace(-6.0, 6.0, 50001)
        err = np.abs(erf_rational(xs) - scipy_special.erf(xs))
        assert err.max() <= ERF_RATIONAL_MAX_ABS_ERROR

    def test_limits_and_nan(self):
        out = erf_rational(np.array([np.inf, -np.inf, np.nan]))
        assert out[0] == 1.0 and out[1] == -1.0 and np.isnan(out[2])

    def test_odd_symmetry(self):
        xs = np.linspace(0.0, 5.0, 101)
        np.testing.assert_array_equal(erf_rational(-xs), -erf_rational(xs))


#: Without SciPy, every erf evaluation (Newton residuals included) goes
#: through the A&S rational fallback, so absolute accuracy is bounded
#: by its ≤1.5e-7 error instead of machine epsilon.
_ERF_TOL = 1e-12 if scipy_special is not None else 4.0 * ERF_RATIONAL_MAX_ABS_ERROR


class TestErfinv:
    def test_newton_matches_bisection_oracle(self):
        ys = np.array([0.0, 1e-8, 0.1, 0.5, 0.9, 0.99, 0.9999, -0.73])
        ours = erfinv_newton(ys)
        for y, x in zip(ys, ours):
            oracle = _erfinv_bisection(float(y))
            # An erf error of ε displaces the inverse by ε/erf'(x); with
            # the no-SciPy rational fallback ε is its 1.5e-7 bound.
            tol = max(5e-8, 2.0 * _ERF_TOL * math.exp(oracle * oracle))
            assert x == pytest.approx(oracle, abs=tol)

    @pytest.mark.skipif(scipy_special is None, reason="scipy not installed")
    def test_newton_within_1e12_of_scipy(self):
        """The documented Newton tolerance on the |y| ≤ 1 - 1e-4 band."""
        ys = np.linspace(-(1.0 - 1e-4), 1.0 - 1e-4, 40001)
        err = np.abs(erfinv_newton(ys) - scipy_special.erfinv(ys))
        assert err.max() <= 1e-12

    @pytest.mark.skipif(scipy_special is None, reason="scipy not installed")
    def test_dispatcher_uses_scipy(self):
        ys = np.linspace(-0.99, 0.99, 101)
        np.testing.assert_array_equal(erfinv_array(ys), scipy_special.erfinv(ys))

    def test_roundtrip_through_erf(self):
        """erf(erfinv(y)) = y to a few ulps wherever erf is unsaturated
        (to the rational fallback's bound when SciPy is absent)."""
        ys = np.linspace(-0.999999999, 0.999999999, 10001)
        xs = erfinv_newton(ys)
        back = np.array([math.erf(x) for x in xs])
        assert np.abs(back - ys).max() < max(1e-13, _ERF_TOL)

    def test_boundary_and_out_of_range(self):
        out = erfinv_newton(np.array([1.0, -1.0, 1.5, -2.0]))
        assert out[0] == np.inf and out[1] == -np.inf
        assert np.isnan(out[2]) and np.isnan(out[3])

    def test_zero_maps_to_zero(self):
        assert abs(erfinv_newton(np.array([0.0]))[0]) <= _ERF_TOL


class TestTruncatedNormalPpf:
    def test_roundtrip_against_cdf(self):
        rng = np.random.default_rng(0)
        for sigma in (0.05, 0.35, 1.0, 4.0, 7.9):
            u = rng.random(5000)
            r = truncated_normal_ppf(u, np.full(5000, sigma))
            assert (r >= 0).all() and (r <= 1).all()
            # truncated_normal_cdf uses math.erf; the ppf goes through
            # erf_array, so without SciPy the gap is the fallback's.
            assert np.abs(truncated_normal_cdf(r, sigma) - u).max() < max(
                1e-9, 4.0 * _ERF_TOL
            )

    def test_moment_pinning_against_mean(self):
        """Empirical inverse-CDF moments match the analytic R_σ mean."""
        for sigma in (0.1, 0.5, 2.0, 5.0):
            u = np.random.default_rng(7).random(40000)
            samples = truncated_normal_ppf(u, np.full(40000, sigma))
            assert samples.mean() == pytest.approx(
                truncated_normal_mean(sigma), abs=0.01
            )

    def test_sigma_zero_exact_zero(self):
        u = np.random.default_rng(1).random(100)
        assert (truncated_normal_ppf(u, np.zeros(100)) == 0.0).all()

    def test_uniform_regime_passthrough(self):
        """σ ≥ UNIFORM_THRESHOLD returns the uniform unchanged."""
        u = np.random.default_rng(2).random(256)
        out = truncated_normal_ppf(u, np.full(256, UNIFORM_THRESHOLD))
        np.testing.assert_array_equal(out, u)

    def test_tiny_sigma_tail(self):
        """σ → 0⁺: the saturated-erf tail still yields finite r ≤ 1."""
        u = np.array([0.0, 0.5, 1.0 - 2.0**-53])
        out = truncated_normal_ppf(u, np.full(3, 0.01))
        assert np.isfinite(out).all()
        assert out[0] == 0.0 and (out <= 1.0).all()

    def test_monotone_in_u(self):
        u = np.linspace(0, 1 - 1e-9, 500)
        r = truncated_normal_ppf(u, np.full(500, 0.4))
        assert (np.diff(r) >= 0).all()

    def test_mixed_sigmas_elementwise(self):
        """Each element follows its own σ — pure elementwise inversion."""
        u = np.full(3, 0.25)
        sigmas = np.array([0.0, 0.3, 20.0])
        out = truncated_normal_ppf(u, sigmas)
        assert out[0] == 0.0
        assert out[1] == truncated_normal_ppf(np.array([0.25]), np.array([0.3]))[0]
        assert out[2] == 0.25

    def test_validation(self):
        with pytest.raises(ValueError, match="same shape"):
            truncated_normal_ppf(np.zeros(3), np.zeros(2))
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            truncated_normal_ppf(np.array([1.0]), np.array([0.5]))
        with pytest.raises(ValueError, match="non-negative"):
            truncated_normal_ppf(np.array([0.5]), np.array([-0.1]))

    def test_ks_against_cdf(self):
        sigma = 0.35
        u = np.random.default_rng(9).random(20000)
        samples = np.sort(truncated_normal_ppf(u, np.full(20000, sigma)))
        empirical = np.arange(1, len(samples) + 1) / len(samples)
        theoretical = truncated_normal_cdf(samples, sigma)
        assert np.abs(empirical - theoretical).max() < 0.015


class TestPairStreamUniforms:
    def test_deterministic(self):
        codes = np.arange(1000)
        a = pair_stream_uniforms(42, codes, PAIR_SUBSTREAM_PERTURBATION)
        b = pair_stream_uniforms(42, codes, PAIR_SUBSTREAM_PERTURBATION)
        np.testing.assert_array_equal(a, b)

    def test_order_invariant(self):
        codes = np.random.default_rng(0).permutation(5000)
        full = pair_stream_uniforms(7, np.arange(5000), PAIR_SUBSTREAM_PERTURBATION)
        shuffled = pair_stream_uniforms(7, codes, PAIR_SUBSTREAM_PERTURBATION)
        np.testing.assert_array_equal(shuffled, full[codes])

    def test_membership_invariant(self):
        """A pair's draw never depends on which other pairs are drawn."""
        rng = np.random.default_rng(1)
        codes = rng.choice(10**9, size=4000, replace=False)
        subset = codes[rng.random(4000) < 0.3]
        full = pair_stream_uniforms(99, codes, PAIR_SUBSTREAM_WHITE_MASK)
        part = pair_stream_uniforms(99, subset, PAIR_SUBSTREAM_WHITE_MASK)
        lookup = dict(zip(codes.tolist(), full.tolist()))
        np.testing.assert_array_equal(part, [lookup[c] for c in subset.tolist()])

    def test_substreams_differ(self):
        codes = np.arange(2000)
        streams = [
            pair_stream_uniforms(5, codes, s)
            for s in (
                PAIR_SUBSTREAM_PERTURBATION,
                PAIR_SUBSTREAM_WHITE_MASK,
                PAIR_SUBSTREAM_WHITE_VALUE,
            )
        ]
        assert not np.array_equal(streams[0], streams[1])
        assert not np.array_equal(streams[1], streams[2])
        # and they are uncorrelated enough to act as independent draws
        assert abs(np.corrcoef(streams[0], streams[1])[0, 1]) < 0.05

    def test_keys_differ(self):
        codes = np.arange(2000)
        a = pair_stream_uniforms(1, codes, PAIR_SUBSTREAM_PERTURBATION)
        b = pair_stream_uniforms(2, codes, PAIR_SUBSTREAM_PERTURBATION)
        assert not np.array_equal(a, b)

    def test_range_and_uniformity(self):
        u = pair_stream_uniforms(123, np.arange(200000), PAIR_SUBSTREAM_PERTURBATION)
        assert (u >= 0).all() and (u < 1).all()
        assert u.mean() == pytest.approx(0.5, abs=0.005)
        assert u.std() == pytest.approx(math.sqrt(1 / 12), abs=0.005)
        # all 8 leading octant bins populated evenly
        hist = np.bincount((u * 8).astype(int), minlength=8)
        assert hist.min() > 0.9 * len(u) / 8

    def test_negative_codes_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            pair_stream_uniforms(0, np.array([-1]), 0)

    @settings(max_examples=25)
    @given(st.integers(min_value=0, max_value=2**62), st.integers(0, 2**40))
    def test_any_key_code_in_range(self, key, code):
        u = pair_stream_uniforms(key, np.array([code]), PAIR_SUBSTREAM_PERTURBATION)
        assert 0.0 <= u[0] < 1.0


class TestPerturbationsFromUniforms:
    def test_alias_of_ppf(self):
        u = np.random.default_rng(0).random(100)
        sig = np.full(100, 0.7)
        np.testing.assert_array_equal(
            perturbations_from_uniforms(u, sig), truncated_normal_ppf(u, sig)
        )
