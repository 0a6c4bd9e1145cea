"""Breadth-first traversal kernels: single-source and all-pairs distances.

Every kernel here runs :func:`bfs_distances`, a vectorised frontier BFS
over the graph's CSR arrays: the per-level neighbour gather is a single
``np.take``/boolean-mask pass, which keeps the Python interpreter out of
the inner loop.  It is the workhorse of the exact distance statistics.

All distances are hop counts on the undirected graph; unreachable
vertices get ``-1``.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph
from repro.utils.validation import check_vertex


def multi_range(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``[s, s+c)`` integer ranges without a Python loop.

    The classic repeat/cumsum multi-range-gather trick: build the flat
    index vector ``[s0, s0+1, .., s0+c0-1, s1, ...]`` from per-range
    starts and lengths.  Zero-length ranges contribute nothing.  Shared
    by the BFS frontier gather below and the batched world kernels
    (:mod:`repro.worlds`), which use it to slice CSR blocks en masse.
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    nonzero = counts > 0
    if not nonzero.all():
        starts, counts = starts[nonzero], counts[nonzero]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    deltas = np.ones(total, dtype=np.int64)
    ends = np.cumsum(counts)
    deltas[0] = starts[0]
    deltas[ends[:-1]] = starts[1:] - (starts[:-1] + counts[:-1] - 1)
    return np.cumsum(deltas)


def _gather_neighbors(
    indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray
) -> np.ndarray:
    """Concatenate the CSR neighbour lists of every vertex in ``frontier``."""
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    return indices[multi_range(starts, counts)]


def bfs_distances(graph: Graph, source: int) -> np.ndarray:
    """Hop distances from ``source`` to every vertex.

    Parameters
    ----------
    graph:
        Graph to traverse; its CSR arrays are read in place.
    source:
        Source vertex.

    Returns
    -------
    numpy.ndarray
        ``int64`` array of distances; ``-1`` marks unreachable vertices.
    """
    indptr, indices = graph.indptr, graph.indices
    n = graph.num_vertices
    source = check_vertex(source, n, "source")

    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        nbrs = _gather_neighbors(indptr, indices, frontier)
        if nbrs.size == 0:
            break
        fresh = nbrs[dist[nbrs] < 0]
        if fresh.size == 0:
            break
        # fresh may contain duplicates discovered from several parents
        dist[fresh] = level
        frontier = np.unique(fresh)
    return dist


def all_pairs_distances(
    graph: Graph, *, sources: np.ndarray | None = None
) -> np.ndarray:
    """Distance rows from each source (default: every vertex).

    Returns an ``(s, n)`` matrix with ``-1`` for unreachable pairs.  For
    large graphs pass a subset of ``sources`` — the distance statistics in
    :mod:`repro.stats.distance` support sampled-source estimation exactly
    like the BFS-sampling estimators cited by the paper [6, 18].
    """
    n = graph.num_vertices
    if sources is None:
        sources = np.arange(n, dtype=np.int64)
    rows = np.empty((len(sources), n), dtype=np.int64)
    for i, s in enumerate(sources):
        rows[i] = bfs_distances(graph, int(s))
    return rows
