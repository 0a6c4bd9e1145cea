"""The edge-iterator triangle counter, the reference for the forward kernel.

:func:`triangle_count` walks every edge ``(u, v)`` with ``u < v`` and
counts the common neighbours ``w > v``, so each triangle is counted once
from its two lowest vertices.  It shares no code with
:func:`repro.graphs.triangles.count_triangles`, which the library's
counters, the batched world engine included, all run on.
"""

from __future__ import annotations

from repro.graphs.graph import Graph
from repro.graphs.triangles import connected_triple_count


def triangle_count(graph: Graph) -> int:
    """Number of triangles (3-cliques), each counted once.

    Complexity ``O(Σ_e min(d_u, d_v))``.
    """
    count = 0
    for u, v in graph.edges():
        nu, nv = graph.neighbors(u), graph.neighbors(v)
        small, large = (nu, nv) if len(nu) <= len(nv) else (nv, nu)
        for w in small:
            if w > v and w in large:
                count += 1
    return count


def clustering_coefficient(graph: Graph) -> float:
    """The paper's ``S_CC = T3 / T2`` from :func:`triangle_count`."""
    t3 = triangle_count(graph)
    t2 = connected_triple_count(graph, triangles=t3)
    return t3 / t2 if t2 else 0.0
