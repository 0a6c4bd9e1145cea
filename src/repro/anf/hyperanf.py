"""HyperANF: neighbourhood-function estimation by register diffusion.

HyperANF [3] maintains one HyperLogLog counter per vertex, initialised
to the singleton ``{v}``; at step ``t`` every counter absorbs (register
max) its neighbours' counters, after which row ``v`` summarises the ball
``B(v, t)``.  The *neighbourhood function* ``N(t) = Σ_v |B(v, t)|``
(estimated) then yields the whole distance distribution:

    #ordered pairs at distance exactly t  =  N(t) − N(t−1)

Convergence is exact in register space: when no register changes during
a step, no later step can change anything, so iteration stops — and the
largest t with an actual register change is the paper's diameter lower
bound ``S_DiamLB``.

The default :func:`hyperanf` runs the kernel first built for the
multi-world engine (:mod:`repro.worlds.anf_batch`), backported to the
single-graph case: the union step is a *degree-grouped segmented max*
(vertices bucketed by neighbour count, each bucket's gathered rows
reduced with one ``max(axis=1)``), only the *change frontier* — rows
with a neighbour that changed last step — is recomputed per step, and
per-row cardinality estimates are cached so the ``N(t)`` bookkeeping
touches changed rows only.  Registers, ``N(t)`` values and convergence
step are identical to the original edge-wise ``np.maximum.at`` sweep,
which the tests keep as the pinned ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.anf.hyperloglog import estimate_many, init_registers
from repro.graphs.graph import Graph
from repro.graphs.traversal import multi_range


@dataclass(frozen=True)
class NeighbourhoodFunction:
    """Result of one HyperANF run.

    Attributes
    ----------
    values:
        ``values[t] ≈ N(t)`` — estimated number of *ordered* vertex pairs
        (including ``u == u``) within distance ``t``; index 0 equals the
        estimate of ``n``.
    converged_at:
        The step at which registers stabilised; also the estimated
        diameter lower bound.
    """

    values: np.ndarray
    converged_at: int

    @property
    def diameter_lower_bound(self) -> int:
        """Largest distance at which some ball still grew (S_DiamLB)."""
        return self.converged_at


def hyperanf(
    graph: Graph,
    *,
    b: int = 6,
    seed: int = 0,
    max_steps: int | None = None,
) -> NeighbourhoodFunction:
    """Run HyperANF on ``graph`` (degree-grouped frontier kernel).

    Parameters
    ----------
    graph:
        Undirected graph (the diffusion uses both edge directions).
    b:
        HyperLogLog register-index bits (accuracy ``≈ 1.04/√(2^b)`` per
        ball estimate; systematic noise largely cancels in the N(t)
        increments).
    seed:
        Hash seed; use different seeds for independent runs when
        jackknifing (§6.3 protocol).
    max_steps:
        Safety cap on diffusion steps (default ``n``).

    Returns
    -------
    NeighbourhoodFunction
        Identical to the edge-wise sweep's output (pinned by the
        backport equivalence tests): the register max is exact in
        ``uint8``, a row can only change when a neighbour changed the
        step before (the frontier invariant), and per-row estimates are
        pure functions of row content, so caching them preserves every
        ``N(t)`` bit-for-bit.
    """
    n = graph.num_vertices
    if n == 0:
        return NeighbourhoodFunction(values=np.zeros(1), converged_at=0)
    if max_steps is None:
        max_steps = n
    regs = init_registers(n, b=b, seed=seed)
    m = regs.shape[1]
    indptr, indices = graph.to_csr()
    degs = np.diff(indptr)

    row_est = estimate_many(regs)
    values = [float(row_est.sum())]
    converged_at = max_steps
    frontier = np.ones(n, dtype=bool)
    for step in range(1, max_steps + 1):
        rows = np.flatnonzero(frontier & (degs > 0))
        # Degree-grouped segmented max: bucket the frontier rows by
        # neighbour count; each bucket's gathered neighbour registers
        # reshape to (rows, d, 2^b) and reduce in one max(axis=1).
        order = np.argsort(degs[rows], kind="stable")
        rows = rows[order]
        rows_degs = degs[rows]
        neighbour_ids = indices[multi_range(indptr[rows], rows_degs)]
        # One gather snapshots the pre-step registers, making the
        # in-place per-bucket updates synchronous — identical to the
        # edge-wise copy-and-merge.
        gathered = regs[neighbour_ids]
        bounds = np.concatenate(
            [[0], np.flatnonzero(np.diff(rows_degs)) + 1, [len(rows)]]
        )
        elem_offsets = np.cumsum(rows_degs) - rows_degs
        changed_chunks = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if lo == hi:
                continue
            d = int(rows_degs[lo])
            rows_d = rows[lo:hi]
            seg = gathered[elem_offsets[lo] : elem_offsets[lo] + d * (hi - lo)]
            seg = seg.reshape(hi - lo, d, m).max(axis=1)
            old = regs[rows_d]
            grew = (seg > old).any(axis=1)
            if grew.any():
                rows_g = rows_d[grew]
                regs[rows_g] = np.maximum(old[grew], seg[grew])
                changed_chunks.append(rows_g)
        if not changed_chunks:
            converged_at = step - 1  # nothing changed this step
            break
        changed_rows = np.concatenate(changed_chunks)
        row_est[changed_rows] = estimate_many(regs[changed_rows])
        values.append(float(row_est.sum()))
        # Next step's frontier: neighbours of rows that just changed.
        with_nbrs = changed_rows[degs[changed_rows] > 0]
        frontier = np.zeros(n, dtype=bool)
        if len(with_nbrs):
            frontier[indices[multi_range(indptr[with_nbrs], degs[with_nbrs])]] = True
    return NeighbourhoodFunction(
        values=np.asarray(values), converged_at=converged_at
    )
