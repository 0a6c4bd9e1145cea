"""Sequential possible-world loops, the references for :mod:`repro.worlds`.

:func:`world_log_probability`, :func:`world_probability` and
:func:`enumerate_worlds` are Equation 1 written out pair by pair: the
exact possible-world semantics the §3 worked examples and the sampler
tests check against.

:func:`world_statistics` draws one world at a time from
:class:`repro.uncertain.sampling.WorldSampler` and calls every
``Graph → float`` statistic on it.  :func:`sample_release` draws one
randomized baseline release per call, and the Table-6 functions below
measure those releases one at a time.  Each consumes the RNG stream the
way the batched engine does, so equal seeds give the same worlds and
releases, and the tests pin the batched values against these loops.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from repro.baselines.anonymity import randomization_anonymity_levels_from_observed
from repro.baselines.randomization import random_perturbation, random_sparsification
from repro.experiments.comparison import scheme_stream
from repro.graphs.graph import Graph
from repro.stats.registry import PAPER_STATISTIC_NAMES, paper_statistics
from repro.stats.sampling import SampleSummary
from repro.uncertain.sampling import WorldSampler
from repro.utils.rng import as_rng


def world_log_probability(uncertain, world: Graph) -> float:
    """Natural-log probability of a possible world (Equation 1).

    ``world`` must be a graph on the same vertex set whose edges are a
    subset of the candidate pairs; otherwise the probability is 0
    (returns ``-inf``).
    """
    if world.num_vertices != uncertain.num_vertices:
        raise ValueError("world must share the vertex set")
    world_edges = set(world.edges())
    candidates = set()
    log_p = 0.0
    for u, v, p in uncertain.candidate_pairs():
        candidates.add((u, v))
        if (u, v) in world_edges:
            if p == 0.0:
                return -math.inf
            log_p += math.log(p)
        else:
            if p == 1.0:
                return -math.inf
            log_p += math.log1p(-p)
    if world_edges - candidates:
        return -math.inf
    return log_p


def world_probability(uncertain, world: Graph) -> float:
    """Probability of a possible world; see :func:`world_log_probability`."""
    return math.exp(world_log_probability(uncertain, world))


def enumerate_worlds(uncertain) -> Iterator[tuple[Graph, float]]:
    """Yield every possible world with its probability.

    Exponential in ``|E_C|``; guarded at 20 candidate pairs.
    """
    pairs = list(uncertain.candidate_pairs())
    if len(pairs) > 20:
        raise ValueError(f"refusing to enumerate 2^{len(pairs)} worlds; use sampling")
    for mask in range(1 << len(pairs)):
        edges = []
        prob = 1.0
        for i, (u, v, p) in enumerate(pairs):
            if mask >> i & 1:
                prob *= p
                edges.append((u, v))
            else:
                prob *= 1.0 - p
            if prob == 0.0:
                break
        if prob > 0.0:
            yield Graph.from_edges(uncertain.num_vertices, edges), prob


def world_statistics(uncertain, statistics, *, worlds: int, seed=None) -> dict:
    """Per-world values of every statistic, one sampled world at a time."""
    rng = as_rng(seed)
    sampler = WorldSampler(uncertain)
    values = {name: [] for name in statistics}
    for _ in range(worlds):
        world = sampler.sample(seed=rng)
        for name, func in statistics.items():
            values[name].append(float(func(world)))
    return {
        name: SampleSummary(name=name, values=np.asarray(vals))
        for name, vals in values.items()
    }


def sample_release(graph, scheme: str, p: float, rng):
    """One randomized release of ``graph`` as a :class:`Graph`."""
    if scheme == "sparsification":
        return random_sparsification(graph, p, seed=rng)
    if scheme == "perturbation":
        return random_perturbation(graph, p, seed=rng)
    raise ValueError(f"unknown scheme {scheme!r}")


def achieved_k(graph, scheme: str, p: float, eps: float, *, releases=3, seed=None):
    """:func:`repro.experiments.comparison.achieved_k`, one release at a time."""
    rng = as_rng(seed)
    n = graph.num_vertices
    skip = int(np.floor(eps * n))
    values = []
    for _ in range(releases):
        observed = sample_release(graph, scheme, p, rng).degrees()
        levels = np.sort(
            randomization_anonymity_levels_from_observed(graph, observed, scheme, p)
        )
        values.append(levels[min(skip, n - 1)])
    return float(np.mean(values))


def calibrate_randomization(graph, scheme, k, eps, *, p_grid, releases=3, seed=None):
    """Smallest grid ``p`` whose sequential :func:`achieved_k` reaches ``k``."""
    rng = as_rng(seed)
    for p in p_grid:
        if achieved_k(graph, scheme, p, eps, releases=releases, seed=rng) >= k:
            return p
    return float("nan")


def baseline_utility_row(graph, scheme, p, config, *, original=None) -> dict:
    """Table-6 baseline row measured on one materialised release at a time."""
    stats = paper_statistics(
        distance_backend=config.distance_backend, seed=config.seed
    )
    if original is None:
        original = {name: float(func(graph)) for name, func in stats.items()}
    rng = scheme_stream(config.seed, scheme)
    values = {name: [] for name in PAPER_STATISTIC_NAMES}
    for _ in range(config.baseline_samples):
        released = sample_release(graph, scheme, p, rng)
        for name, func in stats.items():
            values[name].append(float(func(released)))
    row: dict = {"variant": f"{scheme} p={p}"}
    rel = []
    for name in PAPER_STATISTIC_NAMES:
        row[name] = mean = float(np.mean(values[name]))
        ref = original[name]
        rel.append(abs(mean - ref) / abs(ref) if ref != 0 else float(mean != ref))
    row["rel_err"] = float(np.mean(rel))
    return row
