"""Shortest-path-distance statistics (§6.3 of the paper).

All five measures are derived from the *distance histogram* — the count
of vertex pairs at each finite hop distance plus the count of
disconnected pairs:

* ``S_APD``  — average distance over path-connected pairs;
* ``S_EDiam`` — effective diameter: the 90th-percentile distance with
  the paper's linear interpolation "between the 90th percentile and the
  successive integer";
* ``S_CL``   — connectivity length: harmonic mean over *all* pairs with
  ``1/dist = 0`` for disconnected ones (Marchiori–Latora);
* ``S_PDD``  — the distance distribution itself (vector statistic);
* ``S_Diam`` — the exact diameter (max finite distance).

Three backends produce the histogram:

* :func:`distance_histogram` — exact, all-sources BFS (``O(n·m)``);
* the same function with ``sources`` — BFS from a sampled subset, the
  sampling estimators of [6, 18] cited in §6.3;
* :func:`repro.anf.anf_distance_histogram` — HyperANF diffusion, the
  backend the paper actually uses for its large graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.traversal import bfs_distances
from repro.utils.rng import as_rng


@dataclass(frozen=True)
class DistanceHistogram:
    """Counts of vertex pairs by hop distance.

    Attributes
    ----------
    counts:
        ``counts[d]`` = number of (unordered) pairs at distance ``d``,
        for ``d ≥ 1``; index 0 is unused and kept at 0 so that indices
        equal distances.
    disconnected:
        Number of (unordered) pairs with no connecting path —
        ``S_PDD[∞]`` in the paper's notation.
    exact:
        Whether the histogram came from exhaustive BFS (vs sampling/ANF
        estimation).
    """

    counts: np.ndarray
    disconnected: float
    exact: bool = True

    @property
    def connected_pairs(self) -> float:
        """Total number of path-connected pairs."""
        return float(self.counts.sum())

    @property
    def total_pairs(self) -> float:
        """All pairs, connected or not."""
        return self.connected_pairs + self.disconnected

    def fractions(self) -> np.ndarray:
        """``counts`` normalised by all pairs (the Figure-2 y-axis)."""
        total = self.total_pairs
        if total == 0:
            return self.counts.astype(np.float64)
        return self.counts / total


def distance_histogram(
    graph: Graph,
    *,
    sources: np.ndarray | None = None,
    sample_size: int | None = None,
    seed=None,
) -> DistanceHistogram:
    """Distance histogram by (optionally sampled) all-sources BFS.

    Parameters
    ----------
    graph:
        Graph to measure.
    sources:
        Explicit BFS sources.  When given (or sampled via
        ``sample_size``), per-source pair counts are scaled by ``n/s`` to
        estimate the full histogram — the estimator stays unbiased
        because each unordered pair is counted from both endpoints with
        equal probability.
    sample_size:
        Draw this many sources uniformly without replacement.
    seed:
        RNG for source sampling.

    Returns
    -------
    DistanceHistogram
    """
    n = graph.num_vertices
    if n == 0:
        return DistanceHistogram(np.zeros(1), 0.0, exact=True)
    exact = sources is None and sample_size is None
    if sources is None:
        if sample_size is not None and sample_size < n:
            rng = as_rng(seed)
            sources = rng.choice(n, size=sample_size, replace=False)
        else:
            sources = np.arange(n, dtype=np.int64)
    sources = np.asarray(sources, dtype=np.int64)

    max_dist = 0
    counts = np.zeros(max(n, 2), dtype=np.float64)  # ordered-pair counts
    disconnected = 0.0
    for s in sources:
        dist = bfs_distances(graph, int(s))
        finite = dist[dist > 0]
        if finite.size:
            row = np.bincount(finite)
            counts[: len(row)] += row
            max_dist = max(max_dist, len(row) - 1)
        disconnected += float((dist < 0).sum())

    scale = n / len(sources) if len(sources) else 1.0
    # ordered → unordered, then rescale for sampling
    pair_counts = counts[: max_dist + 1] * scale / 2.0
    return DistanceHistogram(
        counts=pair_counts,
        disconnected=disconnected * scale / 2.0,
        exact=exact,
    )


def average_distance(hist: DistanceHistogram) -> float:
    """``S_APD`` — mean distance over path-connected pairs."""
    total = hist.connected_pairs
    if total == 0:
        return 0.0
    d = np.arange(len(hist.counts), dtype=np.float64)
    return float((d * hist.counts).sum() / total)


def effective_diameter(hist: DistanceHistogram, *, quantile: float = 0.9) -> float:
    """``S_EDiam`` — interpolated 90th-percentile distance.

    The paper's variant "linearly interpolates between the 90-th
    percentile and the successive integer": find the smallest integer
    ``d`` whose cumulative fraction reaches the quantile and interpolate
    within the bin ``(d-1, d]``.
    """
    total = hist.connected_pairs
    if total == 0:
        return 0.0
    target = quantile * total
    cumulative = np.cumsum(hist.counts)
    d = int(np.searchsorted(cumulative, target))
    if d >= len(hist.counts):
        return float(len(hist.counts) - 1)
    below = cumulative[d - 1] if d > 0 else 0.0
    in_bin = hist.counts[d]
    if in_bin <= 0:
        return float(d)
    return (d - 1) + (target - below) / in_bin


def connectivity_length(hist: DistanceHistogram) -> float:
    """``S_CL`` — harmonic mean of pairwise distances over *all* pairs.

    Disconnected pairs contribute ``1/dist = 0`` (Marchiori–Latora), so
    the statistic is finite on disconnected graphs.
    """
    total = hist.total_pairs
    if total == 0:
        return 0.0
    d = np.arange(len(hist.counts), dtype=np.float64)
    with np.errstate(divide="ignore"):
        inv = np.where(d > 0, 1.0 / np.maximum(d, 1), 0.0)
    inv[0] = 0.0
    harmonic_sum = float((inv * hist.counts).sum())
    if harmonic_sum == 0:
        return float("inf")
    return total / harmonic_sum


def diameter(hist: DistanceHistogram) -> float:
    """``S_Diam`` (or its lower bound when the histogram is estimated).

    On an exact histogram this is the true diameter; on an ANF/sampled
    histogram it is the paper's ``S_DiamLB`` — the largest distance with
    nonzero estimated count.
    """
    nz = np.nonzero(hist.counts)[0]
    if len(nz) == 0:
        return 0.0
    return float(nz[-1])
