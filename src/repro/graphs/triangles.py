"""Triangle and connected-triple counting, clustering coefficient inputs.

The paper (§6.4) defines the clustering coefficient as

    S_CC[G] = T3[G] / T2[G]

where ``T3`` is the number of 3-cliques (triangles counted as vertex
*sets*) and ``T2`` the number of *connected triplets* — vertex sets
``{u, v, w}`` inducing at least two edges, each set counted **once**
(Example 3 of the paper: T2[K3] = 1, hence S_CC[K3] = 1).

This differs from the more common transitivity ``3·T3 / Σ_v C(d_v, 2)``;
both are provided, and the identity

    T2 = Σ_v C(d_v, 2) − 2·T3

(open triples are counted once per centre; triangle sets are counted three
times in the centre sum) converts between them.

Every triangle count in the library goes through one kernel,
:func:`count_triangles`: the vectorised *forward* algorithm.  Vertices
are relabelled by (degree, id) rank and each edge is oriented from the
lower label to the higher, so every triangle has exactly one vertex with
out-edges to the other two, and out-degrees stay near ``√m`` even on
heavy-tailed graphs.  The kernel pairs up each out-list's neighbours in
blocks of :data:`WEDGE_BLOCK` wedges and closes every wedge with one
``searchsorted`` over the sorted edge codes.  Given per-edge ``uint64``
*lanes* — bit ``w`` set when world ``w`` keeps the edge — it enumerates
the union graph of up to 64 possible worlds once and counts a triangle
in world ``w`` when bit ``w`` survives the AND of its three lanes; the
per-world totals come off one 256-bin histogram per lane byte.
:func:`triangle_count` is the same kernel on one graph without lanes.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph
from repro.obs.metrics import REGISTRY as _OBS

#: Wedges enumerated per block.  Transient memory is a few dozen bytes
#: per wedge, so it follows this bound, not the size of the graph.
WEDGE_BLOCK = 1 << 20

#: Worlds one lane word holds.
LANE_WIDTH = 64

# _BYTE_BITS[v, j] is bit j (least significant first) of byte value v:
# a byte histogram times this table gives the count per bit.
_BYTE_BITS = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little"
).astype(np.int64)

_WEDGES = _OBS.counter("triangles.wedges")


def forward_orientation(
    n: int, us: np.ndarray, vs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Relabel by (degree, id) rank and orient each edge low → high.

    Returns ``(heads, tails)``, the rank labels of each edge's endpoints
    with ``heads < tails``.
    """
    degrees = np.bincount(us, minlength=n) + np.bincount(vs, minlength=n)
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(degrees, kind="stable")] = np.arange(n, dtype=np.int64)
    ru, rv = rank[us], rank[vs]
    return np.minimum(ru, rv), np.maximum(ru, rv)


def wedge_count(n: int, heads: np.ndarray) -> int:
    """``Σ_v C(L(v), 2)`` over out-degrees ``L``: the wedges the kernel
    enumerates for an orientation with these edge heads."""
    out = np.bincount(heads, minlength=n)
    return int((out * (out - 1) // 2).sum())


def count_triangles(
    n: int,
    us: np.ndarray,
    vs: np.ndarray,
    lanes: np.ndarray | None = None,
    *,
    wedge_budget: int = WEDGE_BLOCK,
) -> int | np.ndarray:
    """Triangles of the graph with edges ``(us[i], vs[i])``.

    Parameters
    ----------
    n:
        Number of vertices.
    us, vs:
        Edge endpoints (distinct pairs, no self loops, any order).
    lanes:
        Optional ``uint64`` per edge: bit ``w`` set when world ``w``
        keeps the edge.  The edges are then the union of up to 64
        worlds, enumerated once.
    wedge_budget:
        Wedges enumerated per block (bounds transient memory; counts do
        not depend on it).

    Returns
    -------
    int or np.ndarray
        Without lanes, the triangle count.  With lanes, a ``(64,)`` int64
        vector whose entry ``w`` counts the triangles of world ``w``.
    """
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    if lanes is not None:
        lanes = np.asarray(lanes, dtype="<u8")
    hist = np.zeros((8, 256), dtype=np.int64)
    total = 0
    E = len(us)
    if E:
        heads, tails = forward_orientation(n, us, vs)
        codes = heads * np.int64(n) + tails
        order = np.argsort(codes)
        codes, heads, tails = codes[order], heads[order], tails[order]
        if lanes is not None:
            lanes = lanes[order]
            used = int(np.bitwise_or.reduce(lanes))
            octets = [k for k in range(8) if (used >> (8 * k)) & 0xFF]
        # Out-lists are contiguous and in label order: slot e opens a
        # wedge with each later slot of its own out-list.
        ends = np.cumsum(np.bincount(heads, minlength=n))
        slots = np.arange(E, dtype=np.int64)
        later = ends[heads] - slots - 1
        bounds = np.cumsum(later)
        wedges = int(bounds[-1])
        _WEDGES.add(wedges)
        lo = done = 0
        while done < wedges:
            hi = int(np.searchsorted(bounds, done + wedge_budget, side="right"))
            hi = max(hi, lo + 1)
            block = int(bounds[hi - 1]) - done
            reps = later[lo:hi]
            first = np.repeat(slots[lo:hi], reps)
            # second = first + 1 + (offset of the wedge within its slot)
            shift = slots[lo:hi] + 1 - (bounds[lo:hi] - reps - done)
            second = np.arange(block, dtype=np.int64) + np.repeat(shift, reps)
            closing = tails[first] * np.int64(n) + tails[second]
            idx = np.searchsorted(codes, closing)
            np.minimum(idx, E - 1, out=idx)
            hit = codes[idx] == closing
            if lanes is None:
                total += int(np.count_nonzero(hit))
            else:
                lane = lanes[first[hit]] & lanes[second[hit]] & lanes[idx[hit]]
                octet_view = lane.view(np.uint8).reshape(-1, 8)
                for k in octets:
                    hist[k] += np.bincount(octet_view[:, k], minlength=256)
            lo, done = hi, done + block
    if lanes is None:
        return total
    return (hist @ _BYTE_BITS).ravel()


def triangle_count(graph: Graph) -> int:
    """Number of triangles (3-cliques), each counted once.

    :func:`count_triangles` on the graph's edge array.
    """
    edges = graph.edge_array()
    return count_triangles(graph.num_vertices, edges[:, 0], edges[:, 1])


def centered_triple_count(graph: Graph) -> int:
    """Number of paths of length two, ``Σ_v C(d_v, 2)`` (per-centre count)."""
    return int(sum(d * (d - 1) // 2 for d in graph.degrees()))


def connected_triple_count(graph: Graph, *, triangles: int | None = None) -> int:
    """Number of vertex triples inducing ≥ 2 edges — the paper's ``T2``.

    Each qualifying vertex *set* is counted once.  A triangle appears three
    times in the per-centre sum, an open wedge once, hence
    ``T2 = Σ_v C(d_v, 2) − 2·T3``.
    """
    if triangles is None:
        triangles = triangle_count(graph)
    return centered_triple_count(graph) - 2 * triangles


def clustering_coefficient(graph: Graph) -> float:
    """The paper's clustering coefficient ``S_CC = T3 / T2``.

    Returns 0.0 when the graph has no connected triples (the statistic is
    conventionally zero on triangle-free, wedge-free graphs).
    """
    t3 = triangle_count(graph)
    t2 = connected_triple_count(graph, triangles=t3)
    if t2 == 0:
        return 0.0
    return t3 / t2


def transitivity(graph: Graph) -> float:
    """The common transitivity ``3·T3 / Σ_v C(d_v, 2)`` (networkx-compatible).

    Exposed for cross-validation against external tools; the experiment
    harness reports the paper's :func:`clustering_coefficient`.
    """
    centered = centered_triple_count(graph)
    if centered == 0:
        return 0.0
    return 3 * triangle_count(graph) / centered
