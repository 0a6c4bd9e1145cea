"""The sequential Lemma-1 fold step, the reference for stacked fold-ins.

:func:`fold_in_bernoulli` adds one Bernoulli to each DP row, one step
at a time.  The tests pin it against the Lemma-1 DP itself, then pin
:func:`repro.core.posterior_batch.fold_in_staircase` against a chain of
its calls.
"""

from __future__ import annotations

import numpy as np


def fold_in_bernoulli(rows: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """One Lemma-1 step per row: add a Bernoulli(``ps[r]``) to row ``r``.

    ``X'(ω) = X(ω)·(1-p) + X(ω-1)·p`` on the retained width — exactly
    the arithmetic of one
    :func:`tests.oracles.posterior.poisson_binomial_pmf_batch` fold step,
    so folding a probability into a finished DP row is bit-identical to
    having included it in the original fold (the DP is order-independent
    up to floating-point; per-column ops here match the batch fold's).

    Parameters
    ----------
    rows:
        ``(r, width)`` matrix of (possibly truncated) DP rows.
    ps:
        One Bernoulli success probability per row.

    Returns
    -------
    numpy.ndarray
        New ``(r, width)`` matrix; inputs are not modified.
    """
    rows = np.asarray(rows, dtype=np.float64)
    ps = np.asarray(ps, dtype=np.float64)
    if rows.ndim != 2 or ps.shape != (rows.shape[0],):
        raise ValueError("rows must be (r, width) with one probability per row")
    if ps.size and (ps.min() < 0.0 or ps.max() > 1.0):
        raise ValueError("Bernoulli probabilities must lie in [0, 1]")
    p = ps[:, None]
    out = np.empty_like(rows)
    out[:, 1:] = rows[:, 1:] * (1.0 - p) + rows[:, :-1] * p
    out[:, 0] = rows[:, 0] * (1.0 - ps)
    return out
