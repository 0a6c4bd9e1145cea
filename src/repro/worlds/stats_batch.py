"""Per-world statistics for a whole batch in flattened array passes.

The degree family (S_NE, S_AD, S_MD, S_DV, S_PL) needs only the
``(W, n)`` degree matrix: one ``bincount`` per world over the endpoints
of the pairs it keeps.  Triangles — the expensive input of S_CC — are
counted by the forward kernel of :mod:`repro.graphs.triangles`, 64
worlds at a time: each slice's keep bits are transposed into pair-major
``uint64`` lanes, and the union graph of the slice is enumerated once,
each closed wedge ANDing its three lanes.  When the worlds of a slice
share too little for that to pay (the union has more wedges than the
worlds have together, as for high-``p`` perturbation releases), each
world is counted alone by the same kernel instead.

Every scalar is produced by the *same* arithmetic as the sequential
``Graph → float`` callables in :mod:`repro.stats` (S_PL literally shares
its fit function), so batched and per-world values agree to fp
round-off; the equivalence tests pin ≤1e-9.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.triangles import (
    LANE_WIDTH,
    WEDGE_BLOCK,
    count_triangles,
    forward_orientation,
    wedge_count,
)
from repro.obs.metrics import REGISTRY as _OBS
from repro.stats.degree import powerlaw_exponent_from_distribution
from repro.worlds.batch import WorldBatch

# Lane-width telemetry (repro.obs): worlds whose triangles came from a
# shared union enumeration vs from a kernel call of their own.
_WORLDS_SLICED = _OBS.counter("worlds.triangles.sliced")
_WORLDS_ALONE = _OBS.counter("worlds.triangles.alone")


def degree_matrix(batch: WorldBatch) -> np.ndarray:
    """Degree sequences of all worlds as a ``(W, n)`` int64 matrix.

    One ``bincount`` per world over the candidate pairs' endpoints,
    weighted by the world's keep bits — the batched counterpart of ``W``
    separate ``Graph.degrees()`` calls.  The float sums are exact
    integers (far below 2**53).
    """
    n, W = batch.num_vertices, batch.num_worlds
    endpoints = np.concatenate([batch._us, batch._vs])
    degrees = np.empty((W, n), dtype=np.int64)
    for w in range(W):
        mask = batch.world_mask(w)
        degrees[w] = np.bincount(
            endpoints, weights=np.concatenate([mask, mask]), minlength=n
        )
    return degrees


def degree_statistics_batch(
    batch: WorldBatch,
    *,
    degrees: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """S_NE, S_AD, S_MD, S_DV and S_PL for every world.

    Parameters
    ----------
    batch:
        The world batch.
    degrees:
        Optional precomputed :func:`degree_matrix` (shared with the
        clustering kernel by the estimator).

    Returns
    -------
    dict[str, np.ndarray]
        Statistic name → ``(W,)`` float64 vector of per-world values.
    """
    n, W = batch.num_vertices, batch.num_worlds
    if degrees is None:
        degrees = degree_matrix(batch)
    ne = degrees.sum(axis=1, dtype=np.int64) // 2
    out: dict[str, np.ndarray] = {"S_NE": ne.astype(np.float64)}
    if n == 0:
        zeros = np.zeros(W, dtype=np.float64)
        out.update(S_AD=zeros, S_MD=zeros.copy(), S_DV=zeros.copy(), S_PL=zeros.copy())
        return out
    out["S_AD"] = 2.0 * ne / n
    out["S_MD"] = degrees.max(axis=1).astype(np.float64)
    out["S_DV"] = degrees.astype(np.float64).var(axis=1)
    # The fit itself is per-world (tail supports differ world to world)
    # but runs on the shared degree matrix and the shared fit function,
    # so it is bit-equal to the scalar path at negligible cost.
    pl = np.empty(W, dtype=np.float64)
    for w in range(W):
        dist = np.bincount(degrees[w]) / n
        pl[w] = powerlaw_exponent_from_distribution(
            dist, average_degree=float(out["S_AD"][w])
        )
    out["S_PL"] = pl
    return out


def triangle_counts_batch(
    batch: WorldBatch, *, wedge_budget: int = WEDGE_BLOCK
) -> np.ndarray:
    """Triangles (3-cliques, counted once) per world.

    Worlds are taken :data:`~repro.graphs.triangles.LANE_WIDTH` at a
    time.  A slice's union graph is enumerated once with per-pair keep
    lanes when its wedge count — ``Σ_v C(L(v), 2)`` under the union's
    (degree, id) orientation — is at most the worlds' own wedge counts
    under that orientation summed; otherwise each world is counted
    alone.  Either way the counts are exact.

    Parameters
    ----------
    batch:
        The world batch.
    wedge_budget:
        Wedges enumerated per kernel block (bounds peak memory; results
        are independent of it).
    """
    n, W = batch.num_vertices, batch.num_worlds
    counts = np.zeros(W, dtype=np.int64)
    for lo in range(0, W, LANE_WIDTH):
        hi = min(lo + LANE_WIDTH, W)
        us, vs, lanes = batch.lanes(lo, hi)
        if len(us) == 0:
            continue
        width = hi - lo
        heads, _ = forward_orientation(n, us, vs)
        masks = [
            ((lanes >> np.uint64(w)) & np.uint64(1)).astype(bool)
            for w in range(width)
        ]
        alone = sum(wedge_count(n, heads[mask]) for mask in masks)
        if wedge_count(n, heads) <= alone:
            _WORLDS_SLICED.add(width)
            counts[lo:hi] = count_triangles(
                n, us, vs, lanes, wedge_budget=wedge_budget
            )[:width]
        else:
            _WORLDS_ALONE.add(width)
            for w, mask in enumerate(masks):
                counts[lo + w] = count_triangles(
                    n, us[mask], vs[mask], wedge_budget=wedge_budget
                )
    return counts


def clustering_coefficients_batch(
    batch: WorldBatch,
    *,
    degrees: np.ndarray | None = None,
    triangles: np.ndarray | None = None,
    wedge_budget: int = WEDGE_BLOCK,
) -> np.ndarray:
    """The paper's ``S_CC = T3 / T2`` per world (0 where ``T2 = 0``).

    ``T2 = Σ_v C(d_v, 2) − 2·T3`` (the identity of
    :mod:`repro.graphs.triangles`) comes straight from the degree
    matrix, so only the triangle count needs graph structure.
    """
    if degrees is None:
        degrees = degree_matrix(batch)
    if triangles is None:
        triangles = triangle_counts_batch(batch, wedge_budget=wedge_budget)
    centered = (degrees * (degrees - 1) // 2).sum(axis=1, dtype=np.int64)
    t2 = centered - 2 * triangles
    return np.where(t2 > 0, triangles / np.maximum(t2, 1), 0.0)
