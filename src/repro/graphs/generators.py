"""Random-graph generators used to synthesise evaluation workloads.

The paper evaluates on three real social networks (dblp, flickr, Y360)
that are not redistributable; :mod:`repro.graphs.datasets` builds
laptop-scale surrogates on top of the generators here.  All generators
are implemented from first principles (no networkx) and take explicit
seeds, so every experiment in the benchmark harness is reproducible
bit-for-bit.  :class:`~repro.graphs.graph.Graph` is immutable, so each
generator grows its graph on a local edge list or adjacency sets and
freezes it once at the end.

Provided models:

* :func:`erdos_renyi` — G(n, p) via geometric edge skipping, O(n + m).
* :func:`barabasi_albert` — preferential attachment via the repeated-nodes
  trick.
* :func:`powerlaw_cluster` — Holme–Kim: preferential attachment plus
  triad-closure steps; produces heavy-tailed degrees *and* tunable
  clustering, which is what the dblp/flickr/Y360 surrogates need.
* :func:`watts_strogatz` — ring lattice with rewiring (small-world
  control case used in tests).
* :func:`configuration_model_edges` — degree-targeted stub matching
  with self-loop/multi-edge rejection.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph
from repro.utils.rng import as_rng
from repro.utils.validation import check_probability


def erdos_renyi(n: int, p: float, *, seed=None) -> Graph:
    """G(n, p): each of the ``n(n-1)/2`` pairs is an edge with probability p.

    Uses geometric jumps between successive edges, so the cost is
    proportional to the number of edges generated rather than the number
    of pairs examined.
    """
    check_probability(p, "p")
    rng = as_rng(seed)
    if p == 0.0 or n < 2:
        return Graph(n)
    if p == 1.0:
        return Graph.from_edge_array(n, np.column_stack(np.triu_indices(n, 1)))
    total_pairs = n * (n - 1) // 2
    log_q = np.log1p(-p)
    edges: list[tuple[int, int]] = []
    idx = -1
    while True:
        # skip ~Geometric(p) pairs
        jump = 1 + int(np.floor(np.log(1.0 - rng.random()) / log_q))
        idx += jump
        if idx >= total_pairs:
            break
        # invert the lexicographic pair index
        u = int((2 * n - 1 - np.sqrt((2 * n - 1) ** 2 - 8 * idx)) // 2)
        offset = idx - (u * (2 * n - u - 1)) // 2
        v = u + 1 + int(offset)
        edges.append((u, v))
    return Graph.from_edges(n, edges)


def _preferential_targets(
    repeated_nodes: list[int], m: int, rng: np.random.Generator
) -> set[int]:
    """Draw ``m`` distinct targets proportionally to degree (+1 smoothing)."""
    targets: set[int] = set()
    while len(targets) < m:
        targets.add(repeated_nodes[int(rng.integers(len(repeated_nodes)))])
    return targets


def barabasi_albert(n: int, m: int, *, seed=None) -> Graph:
    """Barabási–Albert preferential attachment.

    Starts from a star on ``m+1`` vertices, then attaches each new vertex
    to ``m`` existing vertices chosen proportionally to degree.
    """
    if m < 1 or m >= n:
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")
    rng = as_rng(seed)
    edges: list[tuple[int, int]] = []
    repeated: list[int] = []
    for v in range(1, m + 1):
        edges.append((0, v))
        repeated.extend((0, v))
    for v in range(m + 1, n):
        for t in _preferential_targets(repeated, m, rng):
            edges.append((v, t))
            repeated.extend((v, t))
    return Graph.from_edges(n, edges)


def powerlaw_cluster(n: int, m: int, triad_p: float, *, seed=None) -> Graph:
    """Holme–Kim power-law graph with tunable clustering.

    Each new vertex performs ``m`` attachment steps; after a preferential
    attachment to ``t``, with probability ``triad_p`` the *next* step
    closes a triangle by linking to a random neighbour of ``t`` instead of
    doing another preferential step.  Degrees follow a power law as in
    Barabási–Albert; ``triad_p`` tunes the clustering coefficient.
    """
    if m < 1 or m >= n:
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")
    check_probability(triad_p, "triad_p")
    rng = as_rng(seed)
    adj: list[set[int]] = [set() for _ in range(n)]
    repeated: list[int] = []
    for v in range(1, m + 1):
        _link(adj, 0, v)
        repeated.extend((0, v))
    for v in range(m + 1, n):
        # first link is always preferential
        target = repeated[int(rng.integers(len(repeated)))]
        _link(adj, v, target)
        repeated.extend((v, target))
        done = 1
        while done < m:
            close_triangle = rng.random() < triad_p
            candidate = -1
            if close_triangle:
                # The triad step draws by position, so the iteration order
                # is part of the seeded output: it walks a frozenset copy of
                # the neighbour set, whose order can differ from the set's.
                nbrs = [w for w in frozenset(adj[target]) if w != v and w not in adj[v]]
                if nbrs:
                    candidate = nbrs[int(rng.integers(len(nbrs)))]
            if candidate < 0:
                candidate = repeated[int(rng.integers(len(repeated)))]
                if candidate == v or candidate in adj[v]:
                    continue
            _link(adj, v, candidate)
            repeated.extend((v, candidate))
            target = candidate
            done += 1
    return _freeze(adj)


def watts_strogatz(n: int, k: int, rewire_p: float, *, seed=None) -> Graph:
    """Watts–Strogatz ring lattice with random rewiring.

    ``k`` must be even; each vertex starts connected to its ``k`` nearest
    ring neighbours, then every edge's far endpoint is rewired with
    probability ``rewire_p`` to a uniform non-duplicate target.
    """
    if k % 2 != 0 or k < 2:
        raise ValueError(f"k must be even and >= 2, got {k}")
    if k >= n:
        raise ValueError(f"need k < n, got k={k}, n={n}")
    check_probability(rewire_p, "rewire_p")
    rng = as_rng(seed)
    adj: list[set[int]] = [set() for _ in range(n)]
    for v in range(n):
        for offset in range(1, k // 2 + 1):
            u = (v + offset) % n
            if u not in adj[v]:
                _link(adj, v, u)
    for v in range(n):
        for offset in range(1, k // 2 + 1):
            u = (v + offset) % n
            if rng.random() >= rewire_p or u not in adj[v]:
                continue
            # draw replacement avoiding self loops and duplicates
            for _ in range(16):
                w = int(rng.integers(n))
                if w != v and w not in adj[v]:
                    adj[v].discard(u)
                    adj[u].discard(v)
                    _link(adj, v, w)
                    break
    return _freeze(adj)


def _link(adj: list[set[int]], u: int, v: int) -> None:
    """Add the undirected edge (u, v) to a generator's adjacency sets."""
    adj[u].add(v)
    adj[v].add(u)


def _freeze(adj: list[set[int]]) -> Graph:
    """The immutable :class:`Graph` of a generator's adjacency sets."""
    return Graph.from_edges(
        len(adj), ((u, v) for u, nbrs in enumerate(adj) for v in nbrs if u < v)
    )


def powerlaw_degree_sequence(
    n: int, exponent: float, *, d_min: int = 1, d_max: int | None = None, seed=None
) -> np.ndarray:
    """Sample an even-sum degree sequence from a discrete power law.

    ``Pr(d) ∝ d^(−exponent)`` on ``[d_min, d_max]``; the sum is patched to
    even by incrementing one entry if needed, which is the standard
    configuration-model convention.
    """
    if exponent <= 1.0:
        raise ValueError(f"power-law exponent must be > 1, got {exponent}")
    rng = as_rng(seed)
    if d_max is None:
        d_max = max(d_min + 1, int(np.sqrt(n)))
    support = np.arange(d_min, d_max + 1, dtype=np.float64)
    weights = support ** (-exponent)
    probs = weights / weights.sum()
    degrees = rng.choice(np.arange(d_min, d_max + 1), size=n, p=probs)
    if degrees.sum() % 2 == 1:
        degrees[int(rng.integers(n))] += 1
    return degrees.astype(np.int64)


def configuration_model_edges(degrees: np.ndarray, *, seed=None) -> np.ndarray:
    """Edge array of an erased configuration model, fully vectorised.

    One shuffle of the stub vector, consecutive pairing, then array
    passes dropping self loops and collapsing parallel edges — the same
    *edge set* the former per-stub Python loop produced from the same
    seed (matching consumes the identical shuffle; rejection by
    ``has_edge`` and dedup-by-``unique`` both keep exactly the distinct
    non-loop pairs), but at paper scale (Table-1 sizes, hundreds of
    thousands of vertices) the loop is the difference between minutes
    and milliseconds.

    Returns
    -------
    numpy.ndarray
        ``(m, 2)`` int64 array, rows ``(u, v)`` with ``u < v``, sorted
        by pair code.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    if np.any(degrees < 0):
        raise ValueError("degrees must be non-negative")
    if degrees.sum() % 2 != 0:
        raise ValueError("degree sum must be even")
    rng = as_rng(seed)
    n = len(degrees)
    stubs = np.repeat(np.arange(n, dtype=np.int64), degrees)
    rng.shuffle(stubs)
    half = len(stubs) // 2
    us = stubs[0 : 2 * half : 2]
    vs = stubs[1 : 2 * half : 2]
    keep = us != vs
    us, vs = us[keep], vs[keep]
    lo = np.minimum(us, vs)
    hi = np.maximum(us, vs)
    codes = np.unique(lo * np.int64(n) + hi)
    return np.column_stack([codes // n, codes % n])


def affiliation_graph(
    n: int,
    n_groups: int,
    group_size_probs: np.ndarray | list[float],
    *,
    novelty: float = 0.35,
    seed=None,
) -> Graph:
    """Affiliation (clique-union) network: groups of members, fully linked.

    Models co-authorship-style data directly: ``n_groups`` "papers"
    arrive in sequence; each draws a size ``s`` (``group_size_probs[i]``
    is the probability of size ``i + 2``) and picks members — a fresh
    uniform vertex with probability ``novelty``, otherwise an existing
    member proportionally to past participation (preferential
    attachment via the repeated-nodes list).  Members of a group are
    pairwise connected, so the graph is a union of overlapping cliques:
    heavy-tailed degrees *and* abundant triangles.

    Vertices never drawn remain isolated, as real co-authorship
    snapshots contain isolated authors unless pruned.
    """
    check_probability(novelty, "novelty")
    probs = np.asarray(group_size_probs, dtype=np.float64)
    if probs.size == 0 or np.any(probs < 0) or not np.isclose(probs.sum(), 1.0):
        raise ValueError("group_size_probs must be a probability vector")
    rng = as_rng(seed)
    edges: list[tuple[int, int]] = []
    repeated: list[int] = list(range(min(n, 50)))
    sizes = rng.choice(np.arange(2, 2 + probs.size), size=n_groups, p=probs)
    for s in sizes:
        members: set[int] = set()
        tries = 0
        while len(members) < s and tries < 50 * int(s):
            tries += 1
            if rng.random() < novelty:
                members.add(int(rng.integers(n)))
            else:
                members.add(repeated[int(rng.integers(len(repeated)))])
        group = sorted(members)
        for i, u in enumerate(group):
            edges.extend((u, v) for v in group[i + 1 :])
        repeated.extend(group)
    return Graph.from_edges(n, edges)
