"""The perturbation distribution ``R_σ`` (Equation 6) and its sampler.

``R_σ`` is the standard normal ``N(0, σ²)`` truncated to ``[0, 1]`` —
i.e. density proportional to ``exp(-r²/(2σ²))`` on the unit interval.
Small σ concentrates mass near 0 (little injected uncertainty); large σ
flattens towards uniform.

Algorithm 2 (:mod:`repro.core.generate`) draws one ``r_e`` per
candidate pair, each with its own σ, because it redistributes the
global budget into per-pair ``σ(e)`` values (Eq. 7).  Two parts serve
those pair-keyed draws:

* an **inverse-CDF sampler** (:func:`truncated_normal_ppf`, called as
  :func:`perturbations_from_uniforms`, on top of
  ``scipy.special.erfinv``) that maps one uniform per pair straight
  through ``R_σ⁻¹`` in a single vectorised pass.  SciPy's ``erf`` and
  ``erfinv`` are the only ones the package uses, so the release a seed
  publishes cannot depend on which libraries an install happens to
  have.  ``σ = 0`` yields exactly 0 (no perturbation), and
  ``σ ≥ UNIFORM_THRESHOLD`` passes the uniform through: at σ = 8 the
  density ratio between the endpoints is ``exp(-1/128) ≈ 0.992``, so
  the truncated normal is within 0.8% of uniform;
* **counter-based pair substreams** (:func:`pair_stream_uniforms`): each
  pair code acts as the counter of its own keyed stream (Salmon et al.,
  "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11), so a pair's
  draw is a pure function of ``(key, pair code, substream)`` — invariant
  to attempt order and to which *other* pairs share the candidate set.
"""

from __future__ import annotations

import math
import zlib

import numpy as np
from scipy.special import erf, erfinv

#: σ above which R_σ is replaced by the uniform distribution (see module
#: docstring for the accuracy argument).
UNIFORM_THRESHOLD = 8.0

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def truncated_normal_pdf(r: np.ndarray, sigma: float) -> np.ndarray:
    """Density of ``R_σ`` (Equation 6): Gaussian renormalised on [0, 1]."""
    r = np.asarray(r, dtype=np.float64)
    if sigma < 0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    if sigma == 0:
        raise ValueError("R_0 is a point mass at 0; density undefined")
    # ∫_0^1 φ_{0,σ} = erf(1/(σ√2)) / 2
    mass = 0.5 * math.erf(1.0 / (sigma * _SQRT2))
    density = np.exp(-(r**2) / (2.0 * sigma * sigma)) / (sigma * _SQRT_2PI)
    out = np.where((r >= 0.0) & (r <= 1.0), density / mass, 0.0)
    return out


def truncated_normal_cdf(r: np.ndarray, sigma: float) -> np.ndarray:
    """CDF of ``R_σ`` on [0, 1] (clamped outside)."""
    r = np.asarray(r, dtype=np.float64)
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    total = math.erf(1.0 / (sigma * _SQRT2))
    clipped = np.clip(r, 0.0, 1.0)
    flat = np.ravel(clipped)
    vals = np.array([math.erf(x / (sigma * _SQRT2)) for x in flat])
    return vals.reshape(np.shape(clipped)) / total


def truncated_normal_mean(sigma: float) -> float:
    """Exact mean of ``R_σ``: ``σ·√(2/π)·(1 - e^{-1/(2σ²)}) / erf(1/(σ√2))``."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    num = sigma * math.sqrt(2.0 / math.pi) * (1.0 - math.exp(-1.0 / (2.0 * sigma**2)))
    return num / math.erf(1.0 / (sigma * _SQRT2))


# ---------------------------------------------------------------------------
# Inverse-CDF sampling (the pair-keyed stream's one-pass sampler)
# ---------------------------------------------------------------------------


def truncated_normal_ppf(u: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Inverse CDF of ``R_σ``: ``r = σ√2·erfinv(u·erf(1/(σ√2)))``.

    Vectorised over per-element σ: ``σ = 0`` yields exactly 0 and
    ``σ ≥`` :data:`UNIFORM_THRESHOLD` passes the uniform through
    unchanged (see the module docstring).  Outputs are clipped to
    ``[0, 1]`` — by construction ``u·erf(1/(σ√2)) ≤ erf(1/(σ√2))``
    keeps ``r ≤ 1``, the clip only guards the last-ulp rounding of the
    σ where ``erf`` saturates.

    Parameters
    ----------
    u:
        Uniforms in ``[0, 1)``, one per element.
    sigmas:
        Per-element spread parameters, each ≥ 0, same shape as ``u``.
    """
    u = np.asarray(u, dtype=np.float64)
    sigmas = np.asarray(sigmas, dtype=np.float64)
    if u.shape != sigmas.shape:
        raise ValueError("u and sigmas must have the same shape")
    if u.size and (u.min() < 0.0 or u.max() >= 1.0):
        raise ValueError("uniforms must lie in [0, 1)")
    if sigmas.size and sigmas.min() < 0:
        raise ValueError("sigma values must be non-negative")
    out = np.zeros(u.shape, dtype=np.float64)
    flat_u, flat_sigma, flat_out = u.ravel(), sigmas.ravel(), out.ravel()
    uniform = flat_sigma >= UNIFORM_THRESHOLD
    if uniform.any():
        flat_out[uniform] = flat_u[uniform]
    todo = np.flatnonzero((flat_sigma > 0.0) & ~uniform)
    if todo.size:
        sig = flat_sigma[todo]
        total = erf(1.0 / (sig * _SQRT2))
        r = sig * _SQRT2 * erfinv(flat_u[todo] * total)
        flat_out[todo] = np.clip(r, 0.0, 1.0)
    return flat_out.reshape(u.shape)


def perturbations_from_uniforms(
    uniforms: np.ndarray, sigmas: np.ndarray
) -> np.ndarray:
    """Deterministic ``r_e ~ R_{σ(e)}`` from per-pair uniforms.

    The pair-keyed perturbation mode's sampler: one inverse-CDF pass,
    so ``r_e`` is a pure function of its uniform and its σ — no shared
    RNG state, no redraw rounds.  Alias of :func:`truncated_normal_ppf`
    with the argument order Algorithm 2 reads naturally.
    """
    return truncated_normal_ppf(uniforms, sigmas)


# ---------------------------------------------------------------------------
# Counter-based pair substreams (pair code = counter, crc32-salted key)
# ---------------------------------------------------------------------------

#: Substream selectors of the pair-keyed perturbation mode.  Each is a
#: stable ``zlib.crc32`` constant (interpreter-independent, like the
#: Table-6 scheme streams), folded into the master key so the three
#: per-pair draws — the R_σ uniform, the white-noise coin and the
#: white-noise value — are mutually independent substreams.
PAIR_SUBSTREAM_PERTURBATION = zlib.crc32(b"repro.pair-stream.perturbation")
PAIR_SUBSTREAM_WHITE_MASK = zlib.crc32(b"repro.pair-stream.white-mask")
PAIR_SUBSTREAM_WHITE_VALUE = zlib.crc32(b"repro.pair-stream.white-value")

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_U64_MASK = (1 << 64) - 1


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer (Steele et al.) — a 64-bit avalanche bijection."""
    x = (x + _GOLDEN).astype(np.uint64)
    x ^= x >> np.uint64(30)
    x *= _MIX_1
    x ^= x >> np.uint64(27)
    x *= _MIX_2
    x ^= x >> np.uint64(31)
    return x


def pair_stream_uniforms(
    key: int, codes: np.ndarray, substream: int
) -> np.ndarray:
    """One uniform in ``[0, 1)`` per pair code — a pure function.

    Counter-based generation: the pair code is the counter, ``key``
    (the master draw of one Algorithm-2 call) selects the stream and
    ``substream`` (a :data:`PAIR_SUBSTREAM_PERTURBATION`-style crc32
    constant) the per-purpose substream.  The counter is spread by the
    odd golden-ratio multiplier (a 64-bit bijection) and whitened by
    :func:`_splitmix64`; the top 53 bits become the uniform, exactly
    how ``numpy`` converts words to doubles.  No sequential state means
    draws are independent of evaluation order and of every other pair —
    the invariance Algorithm 2's base/fold posterior needs to see
    bit-equal probabilities for pairs shared across attempts.
    """
    codes = np.asarray(codes)
    if codes.size and int(codes.min()) < 0:
        raise ValueError("pair codes must be non-negative")
    mixed_key = np.uint64(
        (int(key) ^ (int(substream) * 0x9E3779B97F4A7C15)) & _U64_MASK
    )
    x = codes.astype(np.uint64) * _GOLDEN + mixed_key
    return (_splitmix64(x) >> np.uint64(11)).astype(np.float64) * 2.0**-53
