"""Plain-text IO for uncertain graphs.

Format: ``u v p`` per line (whitespace separated), ``#`` comments, and an
``# n=`` header for the vertex count — the natural extension of the
edge-list format of :mod:`repro.graphs.io`, and the shape in which an
obfuscated graph would actually be *published* per the paper's proposal.
"""

from __future__ import annotations

import os

import numpy as np

from repro.graphs.io import int64_ids
from repro.uncertain.graph import UncertainGraph


def write_uncertain_graph(graph: UncertainGraph, path: str | os.PathLike) -> None:
    """Write ``graph`` as ``u v p`` lines with an ``# n=`` header."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"# n={graph.num_vertices} candidates={graph.num_candidate_pairs}\n"
        )
        for u, v, p in sorted(graph.candidate_pairs()):
            fh.write(f"{u} {v} {p:.17g}\n")


def read_uncertain_graph(
    path: str | os.PathLike, *, n: int | None = None
) -> UncertainGraph:
    """Read a file written by :func:`write_uncertain_graph`.

    The header is *checked*, not just parsed: a ``candidates=`` count
    that disagrees with the number of ``u v p`` lines (a truncated or
    concatenated release) and vertex ids at or above the header ``n``
    (a corrupted release, even when the caller supplies a larger ``n``)
    both raise ``ValueError`` instead of loading silently as a
    different graph.  So does an unordered pair listed twice, which
    the writer never emits and which would otherwise load as whichever
    probability came last, and a vertex id that does not fit
    ``int64``.  Pairs with ``p = 0`` are kept, so the release reads
    back with the candidate count its header declares.  Headerless
    files (no ``n=``/``candidates=``) remain accepted for
    interoperability, with ``n`` inferred from the largest id.
    """
    ids: list[int] = []
    ps: list[float] = []
    header_n: int | None = None
    header_candidates: int | None = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for token in line[1:].replace(",", " ").split():
                    if token.startswith("n="):
                        header_n = int(token[2:])
                    elif token.startswith("candidates="):
                        header_candidates = int(token[11:])
                continue
            parts = line.split()
            if len(parts) < 3:
                raise ValueError(f"malformed uncertain-edge line: {line!r}")
            ids += (int(parts[0]), int(parts[1]))
            ps.append(float(parts[2]))
    us, vs = int64_ids(ids, path).reshape(-1, 2).T
    if header_candidates is not None and header_candidates != len(ps):
        raise ValueError(
            f"{os.fspath(path)}: header declares candidates="
            f"{header_candidates} but file holds {len(ps)} pair lines "
            "(truncated or corrupted release)"
        )
    max_id = int(max(us.max(initial=-1), vs.max(initial=-1)))
    if header_n is not None and max_id >= header_n:
        raise ValueError(
            f"{os.fspath(path)}: vertex id {max_id} out of range for "
            f"header n={header_n} (corrupted release)"
        )
    seen: set[tuple[int, int]] = set()
    for pair in zip(np.minimum(us, vs).tolist(), np.maximum(us, vs).tolist()):
        if pair in seen:
            raise ValueError(
                f"{os.fspath(path)}: pair {pair} listed more than once "
                "(corrupted release)"
            )
        seen.add(pair)
    if n is None:
        n = header_n if header_n is not None else max_id + 1
    return UncertainGraph.from_arrays(n, us, vs, ps, keep_zero=True)
