"""Batched Table-6 baseline releases as possible worlds.

A randomized release scheme *is* a distribution over possible worlds
(Nguyen et al., "Anonymizing Social Graphs via Uncertainty Semantics"):
random sparsification publishes the possible world of an uncertain
graph whose candidate pairs are the original edges at probability
``1 − p``, and random perturbation additionally gives every original
non-edge the tiny balanced addition probability.  This module exploits
that view to draw ``W`` baseline releases through the same batch
machinery the obfuscation side already uses — a :class:`WorldBatch`
whose kernels (:mod:`repro.worlds.stats_batch`,
:mod:`repro.worlds.anf_batch`) then evaluate all ten Table-6 statistics
without materialising a single per-release Python loop.

Determinism contract (pinned by ``tests/worlds/test_releases.py``):
:func:`sample_releases` consumes the RNG stream *exactly* as ``W``
sequential calls of :func:`repro.baselines.randomization.random_sparsification`
/ :func:`~repro.baselines.randomization.random_perturbation` with a
shared generator would —

* sparsification draws one ``m``-uniform keep vector per release, and a
  single ``(W, m)`` draw fills rows in C order, so the batch *is* the
  ``W`` sequential draws;
* perturbation interleaves keep draws with the geometric-skip addition
  passes, so the batch replays the per-release order, release by
  release, through the very same
  :func:`~repro.baselines.randomization.sample_addition_indices` /
  :func:`~repro.baselines.randomization.sample_added_pairs` primitives
  the sequential path calls (every pass internally vectorised).

Equal seeds therefore give identical releases edge-for-edge in both
paths, which is what lets the tests pin ``experiments/comparison.py``,
which runs Table 6 on the batched engine, against the sequential
functions in ``tests/oracles/worlds.py``.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.randomization import (
    _keep_mask,
    sample_added_pairs,
)
from repro.graphs.graph import Graph, read_only
from repro.obs.metrics import REGISTRY as _OBS
from repro.utils.rng import as_rng
from repro.utils.validation import check_probability
from repro.worlds.batch import WorldBatch, draw_packed_keep_bits

#: The two whole-edge randomization schemes of §7.3.
RELEASE_SCHEMES = ("sparsification", "perturbation")

#: Releases per :func:`stream_releases` batch — the bound on the
#: cross-release union working set.
RELEASE_CHUNK = 32

# Streaming telemetry (repro.obs): chunk shape of the release stream.
_RELEASE_CHUNKS = _OBS.counter("releases.stream.chunks")
_RELEASE_WORLDS = _OBS.counter("releases.stream.worlds")
_RELEASE_CHUNK_HIST = _OBS.histogram("releases.stream.chunk_size")


def sample_releases(
    graph: Graph, scheme: str, p: float, worlds: int, *, seed=None
) -> WorldBatch:
    """Draw ``worlds`` randomized releases of ``graph`` as one batch.

    Parameters
    ----------
    graph:
        The original graph G.
    scheme:
        ``"sparsification"`` or ``"perturbation"``.
    p:
        The scheme's removal probability (perturbation's addition rate
        is derived from ``graph`` as in the paper).
    worlds:
        Number of releases ``W``.
    seed:
        Anything :func:`repro.utils.rng.as_rng` accepts.  Passing a
        ``Generator`` consumes the exact stream positions ``W``
        sequential single-release calls would, so batched and
        sequential draws from one generator interleave exactly.

    Returns
    -------
    WorldBatch
        ``batch.world_graph(w)`` equals the ``w``-th sequential release
        from the same stream.  For perturbation the candidate columns
        are the original edges followed by the union of all pairs added
        in any release (sorted by pair code), each release keeping only
        its own additions.
    """
    check_probability(p, "p")
    if worlds < 0:
        raise ValueError(f"number of releases must be non-negative, got {worlds}")
    if scheme not in RELEASE_SCHEMES:
        raise ValueError(
            f"unknown scheme {scheme!r}; use sparsification/perturbation"
        )
    rng = as_rng(seed)
    edges = graph.edge_array()
    if scheme == "sparsification":
        return _sparsification_batch(rng, graph.num_vertices, edges, p, worlds)
    return _perturbation_batch(rng, graph, edges, p, worlds)


def _sparsification_batch(
    rng, n: int, edges: np.ndarray, p: float, worlds: int
) -> WorldBatch:
    """One ``(W, m)`` Bernoulli keep pass over the original edges."""
    m = len(edges)
    us, vs = read_only(edges[:, 0].copy(), edges[:, 1].copy())
    if m == 0:
        # the sequential sampler draws nothing for an edgeless graph
        return WorldBatch.from_keep_matrix(
            n, us, vs, np.zeros((worlds, 0), dtype=bool)
        )
    packed = draw_packed_keep_bits(
        rng, worlds, m, lambda uniforms: uniforms >= p
    )
    return WorldBatch(n, us, vs, packed, m)


def _merge_sorted_unique(union: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Merge the sorted-unique ``codes`` into the sorted-unique ``union``.

    One ``searchsorted`` + scatter per release instead of the former
    sort of the full concatenated code list: the union index grows
    append-style, cost ``O(|union| + |codes| log |union|)`` per merge,
    and already-present codes are dropped without touching the rest.
    """
    if len(union) == 0:
        return codes
    if len(codes) == 0:
        return union
    pos = np.searchsorted(union, codes)
    pos_safe = np.minimum(pos, len(union) - 1)
    new = codes[union[pos_safe] != codes]
    if len(new) == 0:
        return union
    out = np.empty(len(union) + len(new), dtype=np.int64)
    ins = np.searchsorted(union, new) + np.arange(len(new), dtype=np.int64)
    mask = np.ones(len(out), dtype=bool)
    out[ins] = new
    mask[ins] = False
    out[mask] = union
    return out


def _perturbation_draws(
    rng, graph: Graph, p: float, worlds: int
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """The per-release RNG passes: keep rows, addition codes, union index.

    Consumes the stream exactly like ``worlds`` sequential perturbation
    releases (keep draw then addition pass, release by release).  The
    union of added pair codes is maintained incrementally — each
    release's codes arrive strictly increasing from the geometric-skip
    sampler and are merged by :func:`_merge_sorted_unique`, so no full
    re-sort of the concatenated additions ever happens.
    """
    m = graph.num_edges
    n = graph.num_vertices
    edge_codes = graph.edge_codes()
    keep_rows = np.zeros((worlds, m), dtype=bool)
    added_codes: list[np.ndarray] = []
    union = np.empty(0, dtype=np.int64)
    for w in range(worlds):
        if m:
            keep_rows[w] = _keep_mask(rng, m, p)
        added = sample_added_pairs(graph, p, rng, edge_codes=edge_codes)
        codes = added[:, 0] * np.int64(n) + added[:, 1]
        added_codes.append(codes)
        union = _merge_sorted_unique(union, codes)
    return keep_rows, added_codes, union


def _assemble_perturbation(
    n: int,
    edges: np.ndarray,
    keep_rows: np.ndarray,
    added_codes: list[np.ndarray],
    union: np.ndarray,
) -> WorldBatch:
    """Shared column space + per-release keep rows → one batch."""
    m = len(edges)
    keep = np.zeros((len(added_codes), m + len(union)), dtype=bool)
    keep[:, :m] = keep_rows
    for w, codes in enumerate(added_codes):
        if len(codes):
            keep[w, m + np.searchsorted(union, codes)] = True
    us, vs = read_only(
        np.concatenate([edges[:, 0], union // n]),
        np.concatenate([edges[:, 1], union % n]),
    )
    return WorldBatch.from_keep_matrix(n, us, vs, keep)


def _perturbation_batch(
    rng, graph: Graph, edges: np.ndarray, p: float, worlds: int
) -> WorldBatch:
    """Per-release keep + geometric-skip addition passes, union columns.

    The candidate-pair list is the original edge list extended by every
    pair added in *any* release; a release's keep row marks its kept
    original edges and its own additions.  All releases then share one
    column space, which is exactly the shape the batched kernels need.
    """
    keep_rows, added_codes, union = _perturbation_draws(rng, graph, p, worlds)
    return _assemble_perturbation(graph.num_vertices, edges, keep_rows, added_codes, union)


def stream_releases(
    graph: Graph,
    scheme: str,
    p: float,
    worlds: int,
    *,
    seed=None,
):
    """Yield the releases of :func:`sample_releases` as bounded chunks.

    A generator of :class:`WorldBatch` objects of at most
    :data:`RELEASE_CHUNK` releases each, drawn from the *same* RNG
    stream positions as one :func:`sample_releases` call (per-release
    draws happen in the same order, so chunking never changes which
    releases are produced).

    The memory win is structural for perturbation: each chunk's
    candidate columns cover only the pairs added *within that chunk*,
    so the full cross-release union edge list — which at high ``p``
    dwarfs the original edge set — is never materialised.  Every batch
    kernel reads only kept incidences, so per-chunk evaluation produces
    exactly the values the monolithic batch would (pinned by
    ``tests/worlds/test_releases.py``).

    Parameters
    ----------
    graph, scheme, p, worlds, seed:
        As for :func:`sample_releases`.
    """
    check_probability(p, "p")
    if worlds < 0:
        raise ValueError(f"number of releases must be non-negative, got {worlds}")
    if scheme not in RELEASE_SCHEMES:
        raise ValueError(
            f"unknown scheme {scheme!r}; use sparsification/perturbation"
        )
    rng = as_rng(seed)
    edges = graph.edge_array()
    for lo in range(0, worlds, RELEASE_CHUNK):
        count = min(RELEASE_CHUNK, worlds - lo)
        _RELEASE_CHUNKS.add(1)
        _RELEASE_WORLDS.add(count)
        _RELEASE_CHUNK_HIST.observe(count)
        if scheme == "sparsification":
            yield _sparsification_batch(
                rng, graph.num_vertices, edges, p, count
            )
        else:
            yield _perturbation_batch(rng, graph, edges, p, count)
