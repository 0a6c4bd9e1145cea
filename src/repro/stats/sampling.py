"""Hoeffding guarantees for possible-world sample means (§6.1).

The expected value of a statistic over the exponential world space
(Equation 8) is approximated by the average over ``r`` sampled worlds
(Equation 9).  Lemma 2 gives the Hoeffding bound

    Pr(|E[S] − S̄| ≥ ε) ≤ 2·exp(−2ε²r / (b−a)²)

for a statistic bounded in ``[a, b]``, and Corollary 1 inverts it into a
sample-size rule.  Both are implemented here, together with
:class:`SampleSummary`, the per-statistic sample that
:class:`repro.worlds.WorldStatisticsEstimator` returns for the paper's
Tables 4–5 (sample means and SEMs of 10 statistics over 100 worlds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def hoeffding_error_probability(
    epsilon: float, r: int, lower: float, upper: float
) -> float:
    """Lemma 2: upper bound on ``Pr(|E[S] − S̄| ≥ ε)`` with ``r`` worlds."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if r <= 0:
        raise ValueError(f"sample count must be > 0, got {r}")
    if upper <= lower:
        raise ValueError("need upper > lower statistic bounds")
    return min(1.0, 2.0 * math.exp(-2.0 * epsilon**2 * r / (upper - lower) ** 2))


def hoeffding_sample_size(
    epsilon: float, delta: float, lower: float, upper: float
) -> int:
    """Corollary 1: worlds needed for ``Pr(error ≥ ε) ≤ δ``.

    ``r ≥ ((b−a)/ε)² · ln(2/δ) / 2``.

    Examples
    --------
    The §6.4 clustering-coefficient case, ``S_CC ∈ [0, 1]`` to ±0.1 with
    95% confidence:

    >>> hoeffding_sample_size(0.1, 0.05, 0.0, 1.0)
    185
    """
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if upper <= lower:
        raise ValueError("need upper > lower statistic bounds")
    return int(math.ceil(((upper - lower) / epsilon) ** 2 * math.log(2.0 / delta) / 2.0))


@dataclass
class SampleSummary:
    """Per-statistic summary over sampled worlds (Tables 4–5 columns).

    Attributes
    ----------
    name:
        Statistic identifier.
    values:
        The per-world raw values.
    """

    name: str
    values: np.ndarray = field(repr=False)

    @property
    def num_worlds(self) -> int:
        """Sample size ``r``."""
        return len(self.values)

    @property
    def mean(self) -> float:
        """Sample mean ``S̄`` (Equation 9)."""
        return float(np.mean(self.values)) if len(self.values) else float("nan")

    @property
    def std(self) -> float:
        """Sample standard deviation (ddof=1)."""
        if len(self.values) < 2:
            return 0.0
        return float(np.std(self.values, ddof=1))

    @property
    def sem(self) -> float:
        """Standard error of the mean: ``std / √r``."""
        if len(self.values) < 2:
            return 0.0
        return self.std / math.sqrt(len(self.values))

    @property
    def relative_sem(self) -> float:
        """SEM normalised by the mean — the quantity Table 5 reports."""
        m = self.mean
        if m == 0:
            return float("inf") if self.sem > 0 else 0.0
        return abs(self.sem / m)

    def relative_error(self, reference: float) -> float:
        """|mean − reference| / |reference| — the Table 4 "rel.err" input."""
        if reference == 0:
            return float("inf") if self.mean != 0 else 0.0
        return abs(self.mean - reference) / abs(reference)
