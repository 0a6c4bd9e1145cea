"""Random sparsification and random perturbation (§7.3 comparators).

Two whole-edge randomization schemes, exactly as specified in the paper
(after Bonchi et al. [4] and Hay et al. [12]):

* **random sparsification**: every edge ``e ∈ E`` is removed
  independently with probability ``p`` (nothing is added);
* **random perturbation**: every edge is removed with probability ``p``,
  then every non-adjacent pair is added independently with probability
  ``p·|E| / (C(n,2) − |E|)``, so the *expected* number of added edges
  equals the expected number removed — expected edge count is preserved.

Both publish a *certain* graph; they are the obfuscation-by-uncertainty
method's competition in Table 6 and Figure 4.

A randomized release scheme is a distribution over possible worlds
(Nguyen et al. frame both schemes as uncertain graphs), and this module
is written so the single-release functions double as the ground truth
for the batched release engine in :mod:`repro.worlds.releases`: all
randomness flows through two vectorised primitives — one ``m``-uniform
keep draw per release and :func:`sample_addition_indices` for the
perturbation additions — that both paths call identically.  Drawing
``W`` releases through the batch engine therefore consumes the *same*
RNG stream as ``W`` sequential calls with a shared generator, so equal
seeds give identical releases edge-for-edge (pinned by
``tests/worlds/test_releases.py``).
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph
from repro.utils.rng import as_rng
from repro.utils.validation import check_probability


def sample_addition_indices(rng, total_pairs: int, p_add: float) -> np.ndarray:
    """Pair indices hit by an independent ``p_add`` draw over ``[0, total_pairs)``.

    Vectorised geometric skipping: instead of flipping ``C(n, 2)`` coins,
    draw inter-arrival gaps ``1 + ⌊log(1−U)/log(1−p_add)⌋`` in blocks
    sized to cover the expected hit count, so the cost is proportional
    to the number of *hits*, not to the pair universe.  The block size
    is a pure function of ``(total_pairs, p_add)``, which makes stream
    consumption deterministic — the sequential and batched perturbation
    samplers share this primitive and therefore the exact RNG stream.

    Returns a strictly increasing ``int64`` array of pair indices.
    """
    check_probability(p_add, "p_add")
    if p_add <= 0.0 or total_pairs <= 0:
        return np.empty(0, dtype=np.int64)
    if p_add >= 1.0:
        return np.arange(total_pairs, dtype=np.int64)
    log_q = np.log1p(-p_add)
    expected = total_pairs * p_add
    block = int(min(total_pairs, max(32.0, expected + 6.0 * np.sqrt(expected) + 16.0)))
    parts: list[np.ndarray] = []
    last = -1  # last pair index visited so far
    while True:
        draws = rng.random(block)
        # gaps are capped at total_pairs: a longer skip terminates anyway,
        # and the cap keeps the cumulative sum clear of int64 overflow.
        # A subnormal log_q overflows the quotient to inf, which the cap
        # absorbs, so that overflow is expected and not reported.
        with np.errstate(over="ignore"):
            skips = np.floor(np.log1p(-draws) / log_q)
        gaps = 1 + np.minimum(skips, float(total_pairs)).astype(np.int64)
        pos = last + np.cumsum(gaps)
        inside = pos < total_pairs
        if not inside.all():
            parts.append(pos[inside])  # pos is increasing: a clean prefix
            break
        parts.append(pos)
        last = int(pos[-1])
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def decode_pair_indices(idx: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Invert :func:`repro.graphs.graph.pair_index` for an index array.

    Returns ``(us, vs)`` with ``us < vs``, vectorised over ``idx``.  The
    closed-form row is found by the quadratic formula and then nudged by
    one where ``sqrt`` rounding put the index in a neighbouring row.
    """
    idx = np.asarray(idx, dtype=np.int64)
    u = ((2 * n - 1) - np.sqrt((2.0 * n - 1) ** 2 - 8.0 * idx)) // 2
    u = u.astype(np.int64)
    u = np.where(idx < u * (2 * n - u - 1) // 2, u - 1, u)
    u = np.where(idx >= (u + 1) * (2 * n - u - 2) // 2, u + 1, u)
    row_start = u * (2 * n - u - 1) // 2
    v = u + 1 + (idx - row_start)
    return u, v


def _keep_mask(rng, num_edges: int, p: float) -> np.ndarray:
    """The per-release Bernoulli keep vector (one ``m``-uniform draw).

    Kept as the single point that defines how many uniforms one release
    consumes for its removal phase: ``rng.random((W, m))`` fills rows in
    C order, so the batched sampler reproduces ``W`` of these calls from
    one draw.
    """
    return rng.random(num_edges) >= p


def random_sparsification(graph: Graph, p: float, *, seed=None) -> Graph:
    """Remove each edge independently with probability ``p``."""
    check_probability(p, "p")
    rng = as_rng(seed)
    edges = graph.edge_array()
    if len(edges) == 0:
        return Graph(graph.num_vertices)
    keep = _keep_mask(rng, len(edges), p)
    return Graph.from_edge_array(graph.num_vertices, edges[keep])


def addition_probability(graph: Graph) -> float:
    """The paper's balanced addition rate ``p_add/p = |E|/(C(n,2) − |E|)``.

    Multiplied by the removal probability ``p`` this gives the per-pair
    addition probability of :func:`random_perturbation`.
    """
    non_edges = graph.num_pairs - graph.num_edges
    if non_edges <= 0:
        return 0.0
    return graph.num_edges / non_edges


def sample_added_pairs(
    graph: Graph, p: float, rng, *, edge_codes: np.ndarray | None = None
) -> np.ndarray:
    """The addition phase of one perturbation release, as an ``(a, 2)`` array.

    Draws candidate pair indices by geometric skipping, decodes them to
    endpoints and keeps only non-edges of the *original* graph (original
    edges are addition-immune, exactly as in the paper's scheme).
    ``edge_codes`` lets batch callers pass ``graph.edge_codes()`` once
    instead of re-sorting the edge list per release; it does not affect
    the RNG stream.
    """
    p_add = min(1.0, p * addition_probability(graph))
    idx = sample_addition_indices(rng, graph.num_pairs, p_add)
    if len(idx) == 0:
        return np.empty((0, 2), dtype=np.int64)
    us, vs = decode_pair_indices(idx, graph.num_vertices)
    codes = us * np.int64(graph.num_vertices) + vs
    if edge_codes is None:
        edge_codes = graph.edge_codes()
    hit = np.searchsorted(edge_codes, codes)
    hit_safe = np.minimum(hit, max(len(edge_codes) - 1, 0))
    is_edge = (
        edge_codes[hit_safe] == codes
        if len(edge_codes)
        else np.zeros(len(codes), dtype=bool)
    )
    return np.column_stack([us[~is_edge], vs[~is_edge]])


def random_perturbation(graph: Graph, p: float, *, seed=None) -> Graph:
    """Remove edges w.p. ``p``; add non-edges w.p. ``p·|E|/(C(n,2)−|E|)``.

    Addition uses geometric skipping over the non-edge universe
    (:func:`sample_addition_indices`), so the cost is proportional to
    the number of *added* edges, not to ``C(n, 2)``.
    """
    check_probability(p, "p")
    rng = as_rng(seed)
    edges = graph.edge_array()
    keep = _keep_mask(rng, len(edges), p) if len(edges) else np.zeros(0, dtype=bool)
    added = sample_added_pairs(graph, p, rng)
    combined = np.concatenate([edges[keep], added]) if len(edges) else added
    return Graph.from_edge_array(graph.num_vertices, combined)
