"""Multi-world HyperANF: one register diffusion for a whole batch.

HyperANF's union step is an elementwise register max along edges —
worlds never interact, so ``W`` runs stack into a single
``(W·n, 2^b)`` uint8 register matrix diffused over the batch's
disjoint-union CSR (the world-offset layout of
:meth:`repro.worlds.batch.WorldBatch.csr`).  The diffusion is the one
HyperANF kernel, :func:`repro.anf.hyperanf.hyperanf_stacked`, which
:func:`repro.anf.hyperanf.hyperanf` runs at ``W = 1``: every world
starts from the same ``(b, seed)`` registers, so per-world outputs are
identical to ``W`` single-graph runs (§6.3 protocol: estimator noise is
held constant so world-to-world variation reflects the uncertain
graph), which the tests pin against the edge-wise oracle.

This module adds what is batch-specific: the ``anf.worlds`` and
``anf.iterations`` telemetry, and the four distance statistics derived
from each world's neighbourhood function.
"""

from __future__ import annotations

import numpy as np

from repro.anf.distance_stats import neighbourhood_function_to_histogram
from repro.anf.hyperanf import NeighbourhoodFunction, hyperanf_stacked
from repro.obs.metrics import REGISTRY as _OBS
from repro.stats.distance import (
    average_distance,
    connectivity_length,
    diameter,
    effective_diameter,
)
from repro.worlds.batch import WorldBatch

# HyperANF telemetry (repro.obs): worlds diffused and their
# iterations-to-fixpoint distribution (converged_at per world).
_ANF_WORLDS = _OBS.counter("anf.worlds")
_ANF_ITERATIONS = _OBS.histogram("anf.iterations")


def hyperanf_batch(
    batch: WorldBatch,
    *,
    b: int = 6,
    seed: int = 0,
    max_steps: int | None = None,
) -> list[NeighbourhoodFunction]:
    """Run HyperANF on every world of ``batch`` in one stacked diffusion.

    Parameters
    ----------
    batch:
        The world batch.
    b, seed, max_steps:
        As in :func:`repro.anf.hyperanf.hyperanf`; shared by all worlds.

    Returns
    -------
    list[NeighbourhoodFunction]
        Per-world neighbourhood functions, index-aligned with the batch.
    """
    W = batch.num_worlds
    if W == 0:
        return []
    nfs = hyperanf_stacked(*batch.csr(), W, b=b, seed=seed, max_steps=max_steps)
    _ANF_WORLDS.add(W)
    _ANF_ITERATIONS.observe_many([nf.converged_at for nf in nfs])
    return nfs


#: The four scalar Table-4 distance statistics derived from one histogram.
DISTANCE_STATISTIC_NAMES = ("S_APD", "S_DiamLB", "S_EDiam", "S_CL")


def anf_distance_statistics_batch(
    batch: WorldBatch,
    *,
    b: int = 6,
    seed: int = 0,
    max_steps: int | None = None,
) -> dict[str, np.ndarray]:
    """S_APD, S_DiamLB, S_EDiam and S_CL for every world via batched ANF.

    Each world's neighbourhood function is differentiated into a
    :class:`~repro.stats.distance.DistanceHistogram` and fed to the
    *same* statistic functions the sequential registry uses, so values
    match the per-world ``"anf"`` backend exactly.
    """
    n = batch.num_vertices
    nfs = hyperanf_batch(batch, b=b, seed=seed, max_steps=max_steps)
    out = {name: np.empty(len(nfs), dtype=np.float64) for name in DISTANCE_STATISTIC_NAMES}
    for w, nf in enumerate(nfs):
        hist = neighbourhood_function_to_histogram(nf, n)
        out["S_APD"][w] = average_distance(hist)
        out["S_DiamLB"][w] = diameter(hist)
        out["S_EDiam"][w] = effective_diameter(hist)
        out["S_CL"][w] = connectivity_length(hist)
    return out
