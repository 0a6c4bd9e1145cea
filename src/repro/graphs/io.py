"""Plain-text edge-list IO for certain graphs.

Format: one ``u v`` pair per line, whitespace-separated, ``#`` comments
allowed — the de-facto standard used by SNAP/KONECT dumps, so real
datasets can be dropped in place of the synthetic surrogates without code
changes.  A header comment carrying the vertex count makes isolated
trailing vertices round-trip.
"""

from __future__ import annotations

import os

import numpy as np

from repro.graphs.graph import Graph


def write_edge_list(graph: Graph, path: str | os.PathLike) -> None:
    """Write ``graph`` to ``path`` in edge-list format with an ``# n=`` header."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n={graph.num_vertices} m={graph.num_edges}\n")
        for u, v in graph.edges():
            fh.write(f"{u} {v}\n")


def read_edge_list(path: str | os.PathLike, *, n: int | None = None) -> Graph:
    """Read an edge list written by :func:`write_edge_list` (or SNAP-style).

    Parameters
    ----------
    path:
        File to read.
    n:
        Vertex count override.  If omitted, an ``# n=...`` header is used
        when present, otherwise ``max vertex id + 1``.
    """
    ids: list[int] = []
    header_n: int | None = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for token in line[1:].replace(",", " ").split():
                    if token.startswith("n="):
                        header_n = int(token[2:])
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(f"malformed edge line: {line!r}")
            ids += (int(parts[0]), int(parts[1]))
    edges = int64_ids(ids, path).reshape(-1, 2)
    if n is None:
        n = header_n if header_n is not None else int(edges.max(initial=-1)) + 1
    return Graph.from_edge_array(n, edges)


def int64_ids(ids: list[int], path: str | os.PathLike) -> np.ndarray:
    """Vertex ids parsed from ``path`` as an ``int64`` array.

    An id that does not fit ``int64`` marks a corrupted file, so it
    raises ``ValueError`` here, before anything sized by it is
    allocated.
    """
    try:
        return np.array(ids, dtype=np.int64)
    except OverflowError:
        raise ValueError(
            f"{os.fspath(path)}: vertex id does not fit int64 (corrupted file)"
        ) from None
