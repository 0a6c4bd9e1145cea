"""Per-vertex degree distributions in uncertain graphs (§4 of the paper).

In an uncertain graph the degree of a vertex ``v`` is the sum of
independent Bernoulli variables — one per candidate pair incident to
``v`` (Equation 4) — i.e. a *Poisson-binomial* random variable.  The
paper offers two computation paths, both implemented here:

* **Exact dynamic program** (Lemma 1): fold the Bernoullis one at a time,
  ``Pr(d^ℓ = j) = Pr(d^{ℓ-1} = j-1)·p_ℓ + Pr(d^{ℓ-1} = j)·(1-p_ℓ)``,
  for a total cost quadratic in the number of incident pairs.
* **Normal approximation** (Central Limit Theorem): ``N(μ, σ²)`` with
  ``μ = Σ p_i`` and ``σ² = Σ p_i (1-p_i)``, integrated over unit bins
  ``[ω-1/2, ω+1/2]``.  The bin edges go through ``scipy.special.erf``,
  the package's only ``erf``: a posterior, and the Definition-2
  certificate built on it, must not depend on which libraries an
  install happens to have.

``method="auto"`` uses the exact DP for small supports and switches to
the CLT for vertices with many incident candidate pairs — the same
trade-off §4 describes ("the normal approximation becomes very accurate"
once the number of addends reaches ≈ 30).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

#: Number of Bernoulli addends beyond which ``method="auto"`` switches
#: from the exact DP to the CLT approximation.  The paper cites n ≈ 30 as
#: the point where the CLT "becomes effective"; 64 is conservative.
AUTO_EXACT_LIMIT = 64

_SQRT2 = math.sqrt(2.0)


def poisson_binomial_pmf(probs: np.ndarray) -> np.ndarray:
    """Exact PMF of a sum of independent Bernoulli(p_i) variables.

    Implements the Lemma 1 dynamic program.  Cost is ``O(ℓ²)`` for ``ℓ``
    addends; each fold is a vectorised shift-and-mix.

    Parameters
    ----------
    probs:
        Success probabilities, each in [0, 1].

    Returns
    -------
    numpy.ndarray
        Array of length ``len(probs) + 1``; entry ``j`` is ``Pr(sum = j)``.
        Sums to 1 up to float rounding.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.size and (probs.min() < 0.0 or probs.max() > 1.0):
        raise ValueError("Bernoulli probabilities must lie in [0, 1]")
    pmf = np.zeros(probs.size + 1, dtype=np.float64)
    pmf[0] = 1.0
    filled = 1
    for p in probs:
        # pmf[:filled] holds the distribution of the partial sum
        pmf[1 : filled + 1] = pmf[1 : filled + 1] * (1.0 - p) + pmf[:filled] * p
        pmf[0] *= 1.0 - p
        filled += 1
    return pmf


def normal_approx_pmf(probs: np.ndarray, *, support: int | None = None) -> np.ndarray:
    """CLT approximation to the Poisson-binomial PMF.

    ``Pr(d = ω) ≈ Φ((ω+½-μ)/σ) − Φ((ω-½-μ)/σ)`` with the continuity
    correction of §4; the left tail of bin 0 is closed (integrates from
    −∞) and the right tail of the last bin to +∞, so the result sums to 1.

    Parameters
    ----------
    probs:
        Bernoulli success probabilities.
    support:
        Length of the returned PMF minus one (defaults to ``len(probs)``,
        the exact support).

    Returns
    -------
    numpy.ndarray
        Approximate PMF over ``{0, ..., support}``.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.size and (probs.min() < 0.0 or probs.max() > 1.0):
        raise ValueError("Bernoulli probabilities must lie in [0, 1]")
    size = int(probs.size if support is None else support)
    mu = float(probs.sum())
    var = float((probs * (1.0 - probs)).sum())
    if var <= 0.0:
        # Degenerate sum: all probabilities are 0 or 1.
        pmf = np.zeros(size + 1, dtype=np.float64)
        pmf[min(size, int(round(mu)))] = 1.0
        return pmf
    sigma = math.sqrt(var)
    edges = (np.arange(size + 2, dtype=np.float64) - 0.5 - mu) / (sigma * _SQRT2)
    cdf = 0.5 * (1.0 + erf(edges))
    cdf[0] = 0.0  # close the left tail into bin 0
    cdf[-1] = 1.0  # close the right tail into the last bin
    pmf = np.diff(cdf)
    return pmf


def degree_pmf(
    probs: np.ndarray,
    *,
    method: str = "exact",
    support: int | None = None,
) -> np.ndarray:
    """Degree PMF for a vertex given its incident candidate probabilities.

    Parameters
    ----------
    probs:
        Probabilities of the candidate pairs incident to the vertex.
    method:
        ``"exact"`` (Lemma 1 DP), ``"normal"`` (CLT), or ``"auto"``
        (exact below :data:`AUTO_EXACT_LIMIT` addends, CLT above).
    support:
        Optional padding/truncation length; the returned array has
        ``support + 1`` entries when given.  Truncation *drops* tail mass
        (it is never lumped into the last entry) so every retained entry
        keeps its exact point probability — this is what posterior-column
        queries require; the truncated row may then sum to < 1.

    Returns
    -------
    numpy.ndarray
        PMF over degrees ``{0, 1, ...}``.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if method == "auto":
        method = "exact" if probs.size <= AUTO_EXACT_LIMIT else "normal"
    if method == "exact":
        pmf = poisson_binomial_pmf(probs)
    elif method == "normal":
        pmf = normal_approx_pmf(probs)
    else:
        raise ValueError(f"unknown method {method!r}; use exact/normal/auto")
    if support is not None:
        out = np.zeros(support + 1, dtype=np.float64)
        keep = min(support + 1, pmf.size)
        out[:keep] = pmf[:keep]
        return out
    return pmf


def poisson_binomial_mean_var(probs: np.ndarray) -> tuple[float, float]:
    """Mean ``Σ p_i`` and variance ``Σ p_i (1-p_i)`` of the degree variable."""
    probs = np.asarray(probs, dtype=np.float64)
    return float(probs.sum()), float((probs * (1.0 - probs)).sum())
