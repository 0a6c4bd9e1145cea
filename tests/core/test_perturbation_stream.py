"""Inverse-CDF sampler + counter-based pair substreams.

Covers the sampler layers the ``pair_keyed`` perturbation stream stands
on, and the one ``erf``/``erfinv`` beneath them:

* SciPy is a hard dependency — ``scipy.special`` supplies the only
  ``erf`` and ``erfinv``, so an install without it fails at import
  instead of publishing a different release from the same seed;
* ``erf``/``erfinv`` — the functions the CLT posterior and the sampler
  call, pinned against ``math.erf``, a bisection oracle and SciPy's own
  truncated normal;
* ``truncated_normal_ppf`` — moment/KS pinning against the analytic
  ``R_σ`` quantities and the σ → 0 / σ → ∞ edge regimes;
* ``pair_stream_uniforms`` — purity: a pair's draw depends only on
  ``(key, code, substream)``, never on evaluation order or on which
  other pairs are evaluated alongside it.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as scipy_special
from scipy import stats as scipy_stats

from repro.core import degree_distribution, perturbation
from repro.core.degree_distribution import normal_approx_pmf
from repro.core.perturbation import (
    PAIR_SUBSTREAM_PERTURBATION,
    PAIR_SUBSTREAM_WHITE_MASK,
    PAIR_SUBSTREAM_WHITE_VALUE,
    UNIFORM_THRESHOLD,
    pair_stream_uniforms,
    perturbations_from_uniforms,
    truncated_normal_cdf,
    truncated_normal_mean,
    truncated_normal_ppf,
)

_SRC = Path(__file__).resolve().parents[2] / "src"

#: Absolute accuracy of SciPy's ``erf``/``erfinv`` (machine precision).
_ERF_TOL = 1e-12


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
    """The ``erf`` the CLT degree posterior calls.

    The class is named for the A&S 7.1.26 rational that stood in for
    it on installs without SciPy; its pins now hold SciPy's ``erf``, the
    only one :mod:`repro.core.degree_distribution` has.
    """

    def test_within_documented_bound_of_math_erf(self):
        xs = np.linspace(-8.0, 8.0, 20001)
        exact = np.array([math.erf(x) for x in xs])
        assert np.abs(degree_distribution.erf(xs) - exact).max() <= _ERF_TOL

    def test_within_documented_bound_of_scipy(self):
        """The CLT PMF is SciPy's continuity-corrected normal, bit for bit."""
        probs = np.random.default_rng(3).random(60)
        mu = float(probs.sum())
        sigma = math.sqrt(float((probs * (1.0 - probs)).sum()))
        edges = (np.arange(62, dtype=np.float64) - 0.5 - mu) / (sigma * math.sqrt(2.0))
        cdf = 0.5 * (1.0 + scipy_special.erf(edges))
        cdf[0], cdf[-1] = 0.0, 1.0
        np.testing.assert_array_equal(normal_approx_pmf(probs), np.diff(cdf))

    def test_limits_and_nan(self):
        out = degree_distribution.erf(np.array([np.inf, -np.inf, np.nan]))
        assert out[0] == 1.0 and out[1] == -1.0 and np.isnan(out[2])

    def test_odd_symmetry(self):
        xs = np.linspace(0.0, 5.0, 101)
        np.testing.assert_array_equal(
            degree_distribution.erf(-xs), -degree_distribution.erf(xs)
        )
        # An odd erf mirrors the CLT PMF under p → 1 - p.
        probs = np.random.default_rng(5).random(50)
        np.testing.assert_allclose(
            normal_approx_pmf(1.0 - probs), normal_approx_pmf(probs)[::-1],
            rtol=0, atol=_ERF_TOL,
        )


class TestErfinv:
    """The ``erfinv`` the inverse-CDF sampler calls.

    The ``newton``/``dispatcher`` names come from the NumPy Newton
    fallback and the SciPy-or-Newton dispatch that stood here; the pins
    now hold SciPy's ``erfinv``, the only one
    :mod:`repro.core.perturbation` has, and the sampler built on it.
    """

    def test_newton_matches_bisection_oracle(self):
        ys = np.array([0.0, 1e-8, 0.1, 0.5, 0.9, 0.99, 0.9999, -0.73])
        ours = perturbation.erfinv(ys)
        for y, x in zip(ys, ours):
            oracle = _erfinv_bisection(float(y))
            # An erf error of ε displaces the inverse by ε/erf'(x).
            assert x == pytest.approx(oracle, abs=_ERF_TOL * math.exp(oracle * oracle))

    def test_newton_within_1e12_of_scipy(self):
        """The sampler matches SciPy's own truncated normal R_σ⁻¹."""
        u = np.random.default_rng(0).random(5000)
        for sigma in (0.05, 0.35, 1.0, 4.0, 7.9):
            ours = truncated_normal_ppf(u, np.full(u.shape, sigma))
            theirs = scipy_stats.truncnorm.ppf(u, 0.0, 1.0 / sigma, scale=sigma)
            assert np.abs(ours - theirs).max() <= 1e-12

    def test_dispatcher_uses_scipy(self):
        assert perturbation.erfinv is scipy_special.erfinv
        u = np.linspace(0.0, 0.99, 101)
        sigmas = np.linspace(0.01, 7.9, 101)
        scale = sigmas * math.sqrt(2.0)
        expected = np.clip(
            scale * scipy_special.erfinv(u * scipy_special.erf(1.0 / scale)), 0.0, 1.0
        )
        np.testing.assert_array_equal(truncated_normal_ppf(u, sigmas), expected)

    def test_roundtrip_through_erf(self):
        """erf(erfinv(y)) = y to a few ulps wherever erf is unsaturated."""
        ys = np.linspace(-0.999999999, 0.999999999, 10001)
        xs = perturbation.erfinv(ys)
        back = np.array([math.erf(x) for x in xs])
        assert np.abs(back - ys).max() < 1e-13

    def test_boundary_and_out_of_range(self):
        out = perturbation.erfinv(np.array([1.0, -1.0, 1.5, -2.0]))
        assert out[0] == np.inf and out[1] == -np.inf
        assert np.isnan(out[2]) and np.isnan(out[3])

    def test_zero_maps_to_zero(self):
        assert perturbation.erfinv(np.array([0.0]))[0] == 0.0
        sigmas = np.array([0.0, 0.05, 1.0, UNIFORM_THRESHOLD])
        assert (truncated_normal_ppf(np.zeros(4), sigmas) == 0.0).all()


class TestScipyIsRequired:
    def test_import_fails_without_scipy(self):
        """Blocking ``scipy.special`` makes ``import repro.core`` fail
        loudly: no fallback may publish another stream from the seed."""
        code = (
            "import sys\n"
            "sys.modules['scipy.special'] = None\n"
            "import repro.core\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(_SRC)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode != 0
        assert "scipy" in proc.stderr


class TestTruncatedNormalPpf:
    def test_roundtrip_against_cdf(self):
        rng = np.random.default_rng(0)
        for sigma in (0.05, 0.35, 1.0, 4.0, 7.9):
            u = rng.random(5000)
            r = truncated_normal_ppf(u, np.full(5000, sigma))
            assert (r >= 0).all() and (r <= 1).all()
            # truncated_normal_cdf uses math.erf, the ppf SciPy's erfinv.
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
