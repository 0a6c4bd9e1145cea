"""θ-commonness and θ-uniqueness of property values (Definition 3).

The commonness of a property value ω is a Gaussian-kernel-weighted count
of how many vertices carry nearby values:

    C_θ(ω) = Σ_v Φ_{0,θ}(d(ω, P(v))),      U_θ(ω) = 1 / C_θ(ω)

The paper notes these are meaningful *only as relative measures* — every
downstream use (selecting the excluded set H, the sampling distribution
Q, and the σ(e) redistribution of Eq. 7) consumes ratios of uniqueness
values.  We therefore drop the constant ``1/(θ·√(2π))`` prefactor of the
Gaussian density and use the kernel ``exp(-d²/(2θ²))``: all ratios are
unchanged, and the θ → 0 limit degrades gracefully to exact-match counts
(the kernel becomes an indicator) instead of overflowing.

For the degree property the computation is a histogram convolution,
``O(D²)`` for maximum degree D.
"""

from __future__ import annotations

import numpy as np


def gaussian_kernel(distance: np.ndarray, theta: float) -> np.ndarray:
    """Unnormalised Gaussian kernel ``exp(-d² / (2θ²))``.

    ``θ = 0`` degenerates to the exact-match indicator ``1{d == 0}``.
    """
    distance = np.asarray(distance, dtype=np.float64)
    if theta < 0:
        raise ValueError(f"theta must be non-negative, got {theta}")
    if theta == 0.0:
        return (distance == 0.0).astype(np.float64)
    # Normalise first (z = d/θ) so that subnormal θ cannot underflow θ²
    # into a 0/0 NaN; z may overflow to inf, which exp(-z²/2) maps to 0.
    with np.errstate(under="ignore", over="ignore"):
        z = distance / theta
        return np.exp(-0.5 * z * z)


def degree_histogram(degrees: np.ndarray) -> np.ndarray:
    """Float histogram of a degree sequence (``hist[ω] = #{v: d_v = ω}``).

    The σ-independent half of the commonness computation — Algorithm 1
    probes many θ = σ values against the *same* degree sequence, so the
    search context computes this once and re-runs only the O(D²) kernel
    pass per probe (:func:`degree_commonness_from_histogram`).
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    if degrees.size == 0:
        return np.zeros(0, dtype=np.float64)
    if np.any(degrees < 0):
        raise ValueError("degrees must be non-negative")
    return np.bincount(degrees, minlength=int(degrees.max()) + 1).astype(
        np.float64
    )


def degree_commonness_from_histogram(
    hist: np.ndarray, theta: float
) -> np.ndarray:
    """``C_θ(ω)`` for ``ω ∈ {0, ..., D}`` from a precomputed histogram."""
    hist = np.asarray(hist, dtype=np.float64)
    if hist.size == 0:
        return np.zeros(0, dtype=np.float64)
    omegas = np.arange(len(hist), dtype=np.float64)
    # Pairwise |ω - ω'| kernel against the histogram: O(D²) with D = max degree.
    diff = omegas[:, None] - omegas[None, :]
    kernel = gaussian_kernel(diff, theta)
    # Not ``kernel @ hist``: a BLAS product splits its sums over threads,
    # so the commonness (and every release built on it) would follow the
    # thread count.  NumPy's row sums do not.
    kernel *= hist
    return kernel.sum(axis=1)


def degree_commonness(degrees: np.ndarray, theta: float) -> np.ndarray:
    """``C_θ(ω)`` for every degree value ``ω ∈ {0, ..., max degree}``.

    Parameters
    ----------
    degrees:
        Original degree sequence ``P(v)`` of the graph.
    theta:
        Kernel width; the obfuscation algorithm sets ``θ = σ`` (§5.2).

    Returns
    -------
    numpy.ndarray
        ``commonness[ω] = Σ_v exp(-(ω - d_v)²/(2θ²))``, length
        ``max(degrees) + 1``.
    """
    return degree_commonness_from_histogram(degree_histogram(degrees), theta)


def degree_uniqueness(degrees: np.ndarray, theta: float) -> np.ndarray:
    """Per-vertex uniqueness ``U_θ(P(v)) = 1 / C_θ(P(v))``.

    Every attained degree has commonness ≥ 1 (the vertex's own kernel
    contribution), so the result is finite and lies in ``(0, 1]``.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    commonness = degree_commonness(degrees, theta)
    return 1.0 / commonness[degrees]


def pair_uniqueness(
    vertex_uniqueness: np.ndarray, us: np.ndarray, vs: np.ndarray
) -> np.ndarray:
    """``U_σ(e) = (U_σ(P(u)) + U_σ(P(v))) / 2`` for pair arrays (§5.3)."""
    vertex_uniqueness = np.asarray(vertex_uniqueness, dtype=np.float64)
    return 0.5 * (vertex_uniqueness[us] + vertex_uniqueness[vs])


def redistribute_sigma_invariant(
    sigma: float, pair_uniq: np.ndarray, mean_uniqueness: float
) -> np.ndarray:
    """Candidate-set-independent Eq. 7: ``σ(e) = σ·U_σ(e)/μ_Q``.

    Eq. 7 as printed, ``σ(e) = σ·|E_C|·U_σ(e) / Σ_{e'∈E_C} U_σ(e')``,
    normalises by the *realised* mean uniqueness of the candidate set,
    so a pair's σ(e) shifts whenever any other pair enters or leaves
    ``E_C`` — which would re-randomise every probability each attempt
    and defeat Algorithm 2's per-probe base rows.  Algorithm 2's
    pair-keyed perturbation draws therefore replace the empirical
    normaliser with its expectation under the pair-sampling
    distribution, ``μ_Q = Σ_v Q(v)·U_σ(P(v))`` (endpoints
    are Q-i.i.d., so ``E[U_σ(e)] = μ_Q``): σ(e) becomes a pure function
    of the pair and σ, and the mean of σ(e) over the Q-sampled
    candidates still concentrates on σ as ``|E_C|`` grows.  Under the
    ``"uniform"`` weighting ablation both normalisers are exactly 1 and
    the two variants coincide at ``σ(e) = σ``.
    """
    pair_uniq = np.asarray(pair_uniq, dtype=np.float64)
    if mean_uniqueness <= 0:
        raise ValueError(
            f"mean uniqueness must be positive, got {mean_uniqueness}"
        )
    return sigma * pair_uniq / mean_uniqueness
