"""Jackknife standard errors over repeated randomized runs.

The paper (§6.3) repeats HyperANF with independent hash seeds and uses
jackknifing [26] to attach a standard error to each derived statistic
(reporting drifts of 0.2–2%).  The estimator: for samples
``x_1, ..., x_r`` and a statistic ``θ``, compute the leave-one-out
values ``θ_i = θ(all but x_i)``; then

    SE = sqrt( (r−1)/r · Σ_i (θ_i − θ̄)² )

where ``θ̄`` is the mean of the leave-one-out values.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

import numpy as np


def jackknife(
    samples: Sequence, statistic: Callable[[Sequence], float]
) -> tuple[float, float]:
    """Jackknife a statistic of a sample collection.

    Parameters
    ----------
    samples:
        ``r ≥ 2`` independent run outputs (any objects the statistic
        accepts a list of).
    statistic:
        Maps a list of samples to a scalar (e.g. ``lambda runs:
        np.mean([effective_diameter(h) for h in runs])``).

    Returns
    -------
    (estimate, standard_error):
        The full-sample statistic and its jackknife SE.
    """
    r = len(samples)
    if r < 2:
        raise ValueError(f"jackknife needs at least 2 samples, got {r}")
    full = float(statistic(list(samples)))
    loo = np.array(
        [
            float(statistic([s for j, s in enumerate(samples) if j != i]))
            for i in range(r)
        ]
    )
    centre = loo.mean()
    se = math.sqrt((r - 1) / r * float(((loo - centre) ** 2).sum()))
    return full, se
