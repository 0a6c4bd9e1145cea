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
  :func:`perturbations_from_uniforms`, on top of :func:`erfinv_array`)
  that maps one uniform per pair straight through ``R_σ⁻¹`` in a single
  vectorised pass.  ``σ = 0`` yields exactly 0 (no perturbation), and
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

from repro.core.degree_distribution import erf_array

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

_SQRT_PI_OVER_2 = math.sqrt(math.pi) / 2.0

#: Newton refinement rounds in :func:`erfinv_newton`.  The polynomial
#: initial guess is accurate to ~1e-7; each Newton step on the exact
#: ``erf`` squares the error, so two rounds reach ~1e-14 and the third
#: pins the result at the accuracy of the underlying ``erf_array``
#: (machine precision with SciPy, ≤1.5e-7 with the rational fallback).
_ERFINV_NEWTON_ROUNDS = 3

try:  # SciPy ships a C-loop erfinv; the Newton fallback keeps the
    from scipy.special import erfinv as _erfinv_ufunc  # dependency optional.
except ImportError:  # pragma: no cover - exercised only without scipy
    _erfinv_ufunc = None


def erfinv_newton(y: np.ndarray) -> np.ndarray:
    """Elementwise inverse error function — pure-NumPy Newton path.

    A polynomial initial guess (Giles, "Approximating the erfinv
    function", GPU Computing Gems 2010 — central/tail branches on
    ``w = -ln(1-y²)``) is polished by :data:`_ERFINV_NEWTON_ROUNDS`
    Newton steps on :func:`repro.core.degree_distribution.erf_array`:
    ``x ← x - (erf(x) - y)·(√π/2)·exp(x²)``.  With SciPy's ``erf`` the
    result matches ``scipy.special.erfinv`` to ≤1e-12 for
    ``|y| ≤ 1 - 1e-4`` and the roundtrip ``erf(erfinv(y)) = y`` holds to
    a few ulps everywhere ``erf`` is unsaturated (pinned by the sampler
    tests); deeper in the tail the residual ``erf(x) - y`` cancels
    catastrophically and accuracy degrades as ``~1e-16·exp(x²)`` — the
    information-theoretic limit of inverting float64 ``erf`` without an
    ``erfc`` channel.  ``y = ±1`` maps to ``±inf`` and ``|y| > 1`` to
    NaN, mirroring SciPy.
    """
    y = np.asarray(y, dtype=np.float64)
    a = np.abs(y)
    out = np.full(y.shape, np.nan, dtype=np.float64)
    boundary = a == 1.0
    out[boundary] = np.sign(y[boundary]) * np.inf
    inner = a < 1.0
    if not inner.any():
        return out
    x = y[inner]
    with np.errstate(divide="ignore"):
        w = -np.log1p(-(x * x))
    central = w < 5.0
    wc = np.where(central, w - 2.5, 0.0)
    pc = np.full_like(wc, 2.81022636e-08)
    for coeff in (
        3.43273939e-07,
        -3.5233877e-06,
        -4.39150654e-06,
        0.00021858087,
        -0.00125372503,
        -0.00417768164,
        0.246640727,
        1.50140941,
    ):
        pc = coeff + pc * wc
    wt = np.where(central, 9.0, w)
    wt = np.sqrt(wt) - 3.0
    pt = np.full_like(wt, -0.000200214257)
    for coeff in (
        0.000100950558,
        0.00134934322,
        -0.00367342844,
        0.00573950773,
        -0.0076224613,
        0.00943887047,
        1.00167406,
        2.83297682,
    ):
        pt = coeff + pt * wt
    guess = np.where(central, pc, pt) * x
    for _ in range(_ERFINV_NEWTON_ROUNDS):
        e = erf_array(guess)
        # Where float64 erf saturates to ±1 while |y| < 1 (|x| ≳ 5.86),
        # the residual no longer carries information and Newton would
        # walk off; the polynomial guess stands there.
        live = np.abs(e) < 1.0
        if not live.any():
            break
        g = guess[live]
        guess[live] = g - (e[live] - x[live]) * _SQRT_PI_OVER_2 * np.exp(g * g)
    out[inner] = guess
    return out


def erfinv_array(y: np.ndarray) -> np.ndarray:
    """Elementwise ``erfinv`` (SciPy ufunc when available, else Newton).

    The dispatch mirrors :func:`repro.core.degree_distribution.erf_array`:
    environments without SciPy fall back to :func:`erfinv_newton`, which
    the sampler tests pin against the SciPy path where available.
    """
    if _erfinv_ufunc is not None:
        return np.asarray(_erfinv_ufunc(y), dtype=np.float64)
    return erfinv_newton(y)


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
        total = erf_array(1.0 / (sig * _SQRT2))
        r = sig * _SQRT2 * erfinv_array(flat_u[todo] * total)
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
