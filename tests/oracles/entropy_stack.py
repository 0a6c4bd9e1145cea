"""Frozen Definition-2 reductions of the batched probe path.

Copies of the first stacked implementations, kept verbatim as oracles:

* :func:`column_mass_stack` gathers the whole ``(t·n, width)`` stack in
  one fancy index and reduces it per attempt block;
* :func:`clt_merge` adds the CLT rows' column mass onto the stacked
  mass with ``np.add.at``.

The library now gathers one attempt at a time and merges the CLT rows
per attempt block; the tests require ``np.array_equal`` between the two.
"""

from __future__ import annotations

import numpy as np


def column_mass_stack(
    stack: np.ndarray, omegas: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-attempt ``T = Σ_v c`` and ``S = Σ_v c·log2 c`` (single gather)."""
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 3:
        raise ValueError("stack must be 3-D (attempts × vertices × degrees)")
    omegas = np.asarray(omegas, dtype=np.int64)
    t, n, width = stack.shape
    totals = np.zeros((t, len(omegas)), dtype=np.float64)
    sums = np.zeros((t, len(omegas)), dtype=np.float64)
    valid = (omegas >= 0) & (omegas < width)
    if valid.any():
        cols = stack.reshape(t * n, width)[:, omegas[valid]]
        plogp = np.zeros_like(cols)
        np.log2(cols, out=plogp, where=cols > 0.0)
        plogp *= cols
        totals[:, valid] = cols.reshape(t, n, -1).sum(axis=1)
        sums[:, valid] = plogp.reshape(t, n, -1).sum(axis=1)
    return totals, sums


def clt_merge(
    totals: np.ndarray,
    sums: np.ndarray,
    n: int,
    extra_rows: np.ndarray,
    extra: np.ndarray,
    omegas: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Add the CLT rows' mass to copies of ``totals``/``sums`` via ``np.add.at``."""
    totals, sums = totals.copy(), sums.copy()
    if len(extra_rows):
        ecols = extra[:, omegas]
        eplogp = np.zeros_like(ecols)
        np.log2(ecols, out=eplogp, where=ecols > 0.0)
        eplogp *= ecols
        att = extra_rows // n
        np.add.at(totals, att, ecols)
        np.add.at(sums, att, eplogp)
    return totals, sums
