"""A-posteriori-belief obfuscation measure (Bonchi et al., ICDE'11).

Before the entropy measure of Definition 2, the literature (Hay et
al. [12], Ying et al. [32]) quantified anonymity as the inverse of the
adversary's *maximum* posterior belief:

    level_belief(ω) = ( max_v Y_ω(v) )⁻¹

Bonchi et al. [4] showed the entropy measure dominates it:
``H(Y) ≥ H_∞(Y) = log2 level_belief`` (Shannon entropy is at least
min-entropy), i.e. the entropy-based obfuscation level
``2^{H(Y_ω)}`` is always ≥ the belief-based level.  This module
implements the belief measure on top of the same posterior machinery so
the two can be compared empirically (the §2 discussion the paper builds
on), and the dominance inequality is property-tested.
"""

from __future__ import annotations

import numpy as np

from repro.core.obfuscation_check import DegreePosterior


def belief_level_from_column(column: np.ndarray) -> float:
    """``(max_v Y_ω(v))⁻¹`` for an unnormalised posterior column.

    Returns 0.0 for an all-zero column (unattainable degree), matching
    the entropy checker's convention.
    """
    column = np.asarray(column, dtype=np.float64)
    total = column.sum()
    if total <= 0:
        return 0.0
    return float(total / column.max())


def belief_obfuscation_levels(
    posterior: DegreePosterior, degrees: np.ndarray
) -> np.ndarray:
    """Per-vertex belief-based level ``(max_u Y_{P(v)}(u))⁻¹``.

    Directly comparable with
    :meth:`repro.core.DegreePosterior.obfuscation_levels`, which returns
    the entropy-based ``2^{H(Y_{P(v)})}``; by min-entropy ≤ Shannon
    entropy the belief level never exceeds the entropy level.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    by_degree = {
        int(w): belief_level_from_column(posterior.x_column(int(w)))
        for w in np.unique(degrees)
    }
    return np.array([by_degree[int(w)] for w in degrees], dtype=np.float64)
