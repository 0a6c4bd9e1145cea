"""The edge-wise HyperANF sweep, the reference for :func:`repro.anf.hyperanf`.

:func:`hyperanf_edgewise` is the original ``np.maximum.at`` diffusion:
every step merges every edge's registers and re-estimates every row.
The tests pin the degree-grouped frontier kernel of
:func:`repro.anf.hyperanf` against it bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.anf.hyperanf import NeighbourhoodFunction
from repro.anf.hyperloglog import estimate_many, init_registers
from repro.graphs.graph import Graph


def hyperanf_edgewise(
    graph: Graph,
    *,
    b: int = 6,
    seed: int = 0,
    max_steps: int | None = None,
) -> NeighbourhoodFunction:
    """Original edge-wise HyperANF sweep (``np.maximum.at`` per step).

    Pinned ground truth for the degree-grouped frontier kernel of
    :func:`hyperanf`; recomputes every row's merge and the full
    ``N(t)`` estimate each step.
    """
    n = graph.num_vertices
    if n == 0:
        return NeighbourhoodFunction(values=np.zeros(1), converged_at=0)
    if max_steps is None:
        max_steps = n
    regs = init_registers(n, b=b, seed=seed)
    edges = graph.edge_array()
    us, vs = edges[:, 0], edges[:, 1]

    values = [float(estimate_many(regs).sum())]
    step = 0
    for step in range(1, max_steps + 1):
        new = regs.copy()
        if len(us):
            np.maximum.at(new, us, regs[vs])
            np.maximum.at(new, vs, regs[us])
        if np.array_equal(new, regs):
            step -= 1  # nothing changed this step
            break
        regs = new
        values.append(float(estimate_many(regs).sum()))
    return NeighbourhoodFunction(values=np.asarray(values), converged_at=step)
