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

One kernel, :func:`hyperanf_stacked`, diffuses ``W`` graphs at once:
their registers stack into one ``(W·n, 2^b)`` uint8 matrix over the
disjoint union of their CSRs (world ``w`` owns rows ``[w·n, (w+1)·n)``).
Worlds never interact, so each world's output equals a run on its own.
:func:`hyperanf` is that kernel at ``W = 1`` on a graph's own
``indptr``/``indices``; :func:`repro.worlds.anf_batch.hyperanf_batch`
runs it on a world batch's union CSR.

Per step the union is a *degree-grouped segmented max*: the rows to
recompute are bucketed by neighbour count, and each bucket's gathered
neighbour rows reshape to ``(rows, d, 2^b)`` and reduce with one
``max(axis=1)`` (``np.ufunc.at``/``reduceat`` are an order of magnitude
slower).  Only the *change frontier* — rows with a neighbour that
changed last step — is recomputed, per-row cardinality estimates are
cached so the ``N(t)`` bookkeeping touches changed rows only, and a
world whose registers stop changing is frozen while the others keep
diffusing.  Registers, ``N(t)`` values and convergence steps equal the
edge-wise ``np.maximum.at`` sweep of ``tests/oracles/anf.py`` bit for
bit, which the tests pin.
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


def hyperanf(
    graph: Graph,
    *,
    b: int = 6,
    seed: int = 0,
    max_steps: int | None = None,
) -> NeighbourhoodFunction:
    """Run HyperANF on ``graph`` (:func:`hyperanf_stacked` at ``W = 1``).

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
    """
    (nf,) = hyperanf_stacked(
        graph.indptr, graph.indices, 1, b=b, seed=seed, max_steps=max_steps
    )
    return nf


def hyperanf_stacked(
    indptr: np.ndarray,
    indices: np.ndarray,
    worlds: int,
    *,
    b: int = 6,
    seed: int = 0,
    max_steps: int | None = None,
) -> list[NeighbourhoodFunction]:
    """Run HyperANF on ``worlds`` stacked graphs in one diffusion.

    Parameters
    ----------
    indptr, indices:
        CSR of the ``W·n``-vertex disjoint union: world ``w`` owns rows
        ``[w·n, (w+1)·n)`` and its neighbour ids carry the same offset.
    worlds:
        ``W``; ``n`` is ``(len(indptr) − 1) / W``.
    b, seed, max_steps:
        As in :func:`hyperanf`; every world starts from the same
        ``(b, seed)`` registers (§6.3 protocol: estimator noise is held
        constant, so world-to-world variation reflects the graphs).

    Returns
    -------
    list[NeighbourhoodFunction]
        One per world, in order.  The register max is exact in
        ``uint8``, a row can only change when a neighbour changed the
        step before (the frontier invariant), and per-row estimates are
        pure functions of row content, so every ``N(t)`` and
        convergence step equals a separate edge-wise run.
    """
    if worlds == 0:
        return []
    n = (len(indptr) - 1) // worlds
    if n == 0:
        return [
            NeighbourhoodFunction(values=np.zeros(1), converged_at=0)
            for _ in range(worlds)
        ]
    if max_steps is None:
        max_steps = n

    base = init_registers(n, b=b, seed=seed)
    regs = np.tile(base, (worlds, 1))
    m = regs.shape[1]
    degs = np.diff(indptr)
    has_nbrs = degs > 0
    row_world = np.repeat(np.arange(worlds), n)

    # Every world starts from the same n rows, so estimating the base
    # once and tiling equals (and is W times cheaper than) estimating
    # the full stack.
    row_est = np.tile(estimate_many(base), worlds)
    est0 = row_est.reshape(worlds, n).sum(axis=1)
    values: list[list[float]] = [[float(e)] for e in est0]
    converged_at = np.full(worlds, max_steps, dtype=np.int64)
    active = np.ones(worlds, dtype=bool)
    frontier = np.ones(worlds * n, dtype=bool)
    for step in range(1, max_steps + 1):
        rows = np.flatnonzero(frontier & has_nbrs)
        rows = rows[np.argsort(degs[rows], kind="stable")]
        rows_degs = degs[rows]
        # One gather snapshots the pre-step registers, making the
        # in-place per-bucket updates synchronous — identical to the
        # edge-wise copy-and-merge.
        gathered = regs[indices[multi_range(indptr[rows], rows_degs)]]
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
        changed = np.zeros(worlds, dtype=bool)
        if changed_chunks:
            changed_rows = np.concatenate(changed_chunks)
            changed[row_world[changed_rows]] = True
            row_est[changed_rows] = estimate_many(regs[changed_rows])
        converged_at[active & ~changed] = step - 1  # nothing changed this step
        active &= changed
        if not active.any():
            break
        live = np.flatnonzero(active)
        est = row_est.reshape(worlds, n)[live].sum(axis=1)
        for w, e in zip(live, est):
            values[w].append(float(e))
        # Next step's frontier: the live neighbours of rows that changed.
        with_nbrs = changed_rows[has_nbrs[changed_rows]]
        frontier = np.zeros(worlds * n, dtype=bool)
        if len(with_nbrs):
            frontier[indices[multi_range(indptr[with_nbrs], degs[with_nbrs])]] = True
        frontier &= active[row_world]
    return [
        NeighbourhoodFunction(
            values=np.asarray(values[w]), converged_at=int(converged_at[w])
        )
        for w in range(worlds)
    ]
