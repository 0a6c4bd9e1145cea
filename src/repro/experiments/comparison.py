"""Table 6 / Figure 4 machinery: matching and beating the baselines.

The paper's comparative protocol (§7.3):

1. pick a randomization parameter ``p`` whose release reaches the same
   (k, ε) anonymity as the uncertain-graph obfuscation — the achieved
   ``k`` of a release is the least anonymity level after disregarding
   the ``ε·n`` least-anonymous vertices;
2. sample releases (the paper used 50), compute every statistic on each,
   and compare means against the original values;
3. report the average relative error per method — Table 6 — and the
   cumulative anonymity curves — Figure 4.

:func:`calibrate_randomization` automates step 1 with a monotone scan
over a ``p`` grid (the paper hand-picked from the same {0.04, 0.32,
0.64} family).

A randomized release is a distribution over possible worlds, so every
release-sampling step runs on the :mod:`repro.worlds` engine: the
releases of a scheme are drawn as world batches by
:mod:`repro.worlds.releases` and measured by the same multi-world
kernels that evaluate obfuscation worlds.  A one-release-at-a-time loop
over :mod:`repro.baselines.randomization` consumes the identical RNG
stream; it lives in ``tests/oracles/worlds.py``, and
``tests/experiments/test_comparison_batched.py`` pins equal releases,
equal ``achieved_k`` and calibration, and rows within 1e-9 against it.

Per-scheme RNG streams are derived from ``zlib.crc32`` of the scheme
name — a stable constant, unlike ``hash()``, which varies with
``PYTHONHASHSEED`` across interpreter runs.
"""

from __future__ import annotations

import logging
import zlib

import numpy as np

from repro.baselines.anonymity import (
    original_anonymity_levels,
    randomization_anonymity_levels_from_observed,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import (
    SweepEntry,
    _original_statistics,
    evaluate_utility,
)
from repro.graphs.graph import Graph
from repro.obs.trace import span
from repro.stats.registry import PAPER_STATISTIC_NAMES, paper_statistics
from repro.utils.rng import as_rng
from repro.worlds.estimator import BatchStatisticsEngine
from repro.worlds.releases import sample_releases, stream_releases
from repro.worlds.stats_batch import degree_matrix

_log = logging.getLogger("repro.experiments.comparison")

#: Default calibration grid, containing the paper's hand-picked values.
DEFAULT_P_GRID: tuple[float, ...] = (0.01, 0.02, 0.04, 0.08, 0.16, 0.32, 0.64, 0.9)


def scheme_stream(seed, scheme: str) -> np.random.Generator:
    """Per-scheme child RNG: root seed + a *stable* scheme constant.

    ``zlib.crc32`` is deterministic across interpreter runs, unlike
    ``hash()`` whose value depends on ``PYTHONHASHSEED`` — the latter
    made Table-6 baseline rows irreproducible across processes.
    """
    return as_rng((seed, zlib.crc32(scheme.encode())))


def achieved_k(
    graph: Graph,
    scheme: str,
    p: float,
    eps: float,
    *,
    releases: int = 3,
    seed=None,
) -> float:
    """Anonymity level a randomized scheme reaches at tolerance ε.

    Averages over ``releases`` sampled releases the quantity "least
    anonymity after disregarding the ⌊ε·n⌋ least-anonymous vertices"
    (the skip index is clamped to the last vertex when ``ε·n ≥ n``).

    All releases are drawn in one
    :func:`~repro.worlds.releases.sample_releases` pass and their degree
    sequences come from one :func:`~repro.worlds.stats_batch.degree_matrix`
    bincount — no per-release :class:`Graph` is materialised.
    """
    rng = as_rng(seed)
    n = graph.num_vertices
    skip = int(np.floor(eps * n))
    values = []
    for observed in degree_matrix(
        sample_releases(graph, scheme, p, releases, seed=rng)
    ):
        levels = np.sort(
            randomization_anonymity_levels_from_observed(graph, observed, scheme, p)
        )
        values.append(levels[min(skip, n - 1)])
    return float(np.mean(values))


def calibrate_randomization(
    graph: Graph,
    scheme: str,
    k: float,
    eps: float,
    *,
    p_grid: tuple[float, ...] = DEFAULT_P_GRID,
    releases: int = 3,
    seed=None,
) -> float:
    """Smallest grid ``p`` whose release achieves anonymity ≥ k at tolerance ε.

    Returns ``nan`` when even the largest grid value falls short (the
    Hay-et-al. regime where randomization cannot reach the target
    without destroying the graph).
    """
    rng = as_rng(seed)
    with span("calibrate_randomization", scheme=scheme, k=k) as sp:
        for p in p_grid:
            if achieved_k(graph, scheme, p, eps, releases=releases, seed=rng) >= k:
                sp.set(p=p)
                _log.info("calibrated %s to p=%g for k>=%g", scheme, p, k)
                return p
    _log.warning(
        "calibration failed: %s cannot reach k>=%g on the grid %s",
        scheme, k, p_grid,
    )
    return float("nan")


def baseline_utility_row(
    graph: Graph,
    scheme: str,
    p: float,
    config: ExperimentConfig,
    *,
    label: str | None = None,
    original: dict[str, float] | None = None,
    executor=None,
) -> dict:
    """Mean statistics over sampled releases + avg relative error vs original.

    The ``config.baseline_samples`` releases stream through bounded
    :class:`~repro.worlds.batch.WorldBatch` chunks
    (:func:`~repro.worlds.releases.stream_releases`, so the full
    cross-release union edge list of high-``p`` perturbation never
    materialises), and each chunk's ten paper statistics come from one
    :meth:`~repro.worlds.estimator.BatchStatisticsEngine.evaluate` call
    on the multi-world kernels, sharded over ``executor`` like the
    obfuscation side's worlds.

    ``original`` lets callers that emit several rows for one dataset
    (``table6_rows``) reuse the original graph's statistics instead of
    recomputing an ANF/BFS pass per row.
    """
    stats = paper_statistics(
        distance_backend=config.distance_backend, seed=config.seed
    )
    if original is None:
        original = {name: float(func(graph)) for name, func in stats.items()}
    rng = scheme_stream(config.seed, scheme)
    engine = BatchStatisticsEngine(stats)
    names = list(PAPER_STATISTIC_NAMES)
    with span(
        "baseline_utility", scheme=scheme, p=p, samples=config.baseline_samples
    ):
        parts = [
            engine.evaluate(batch, names, executor=executor)
            for batch in stream_releases(
                graph, scheme, p, config.baseline_samples, seed=rng
            )
        ]
    row: dict = {"variant": label or f"{scheme} p={p}"}
    rel = []
    for name in PAPER_STATISTIC_NAMES:
        mean = float(np.mean(np.concatenate([part[name] for part in parts])))
        row[name] = mean
        ref = original[name]
        rel.append(abs(mean - ref) / abs(ref) if ref != 0 else float(mean != ref))
    row["rel_err"] = float(np.mean(rel))
    return row


def obfuscation_utility_row(
    entry: SweepEntry,
    config: ExperimentConfig,
    *,
    label: str | None = None,
    original: dict[str, float] | None = None,
    executor=None,
) -> dict:
    """Table-6 row for the uncertain-graph method at one sweep cell."""
    if original is None:
        original = _original_statistics(entry.graph, config)
    summaries = evaluate_utility(entry, config, executor=executor)
    row: dict = {
        "variant": label or f"obf. (k={entry.k}, eps={entry.paper_eps:g})"
    }
    rel = []
    for name in PAPER_STATISTIC_NAMES:
        mean = summaries[name].mean
        row[name] = mean
        ref = original[name]
        rel.append(abs(mean - ref) / abs(ref) if ref != 0 else float(mean != ref))
    row["rel_err"] = float(np.mean(rel))
    return row


def original_row(
    graph: Graph,
    config: ExperimentConfig,
    *,
    original: dict[str, float] | None = None,
) -> dict:
    """The "original" reference row of Table 6."""
    if original is None:
        original = _original_statistics(graph, config)
    row: dict = {"variant": "original"}
    row.update(original)
    row["rel_err"] = 0.0
    return row


def table6_rows(
    sweep: list[SweepEntry],
    config: ExperimentConfig,
    *,
    matchups: list[dict] | None = None,
    executor=None,
) -> list[dict]:
    """Full Table 6: original vs randomization vs obfuscation per dataset.

    ``matchups`` entries have keys ``dataset``, ``scheme``, ``k``,
    ``paper_eps`` (the obfuscation cell to match) and optionally a fixed
    ``p``; when ``p`` is absent it is calibrated.  The default matchups
    are the paper's §7.3 cases, restricted to datasets present in the
    sweep.
    """
    if matchups is None:
        # The paper's §7.3 cases, with one adaptation: its dblp
        # perturbation matchup used (k = 60, ε = 10⁻³), but under the
        # count-preserving ε rescale (EXPERIMENTS.md) the loose-ε cells
        # tolerate ~10% of the surrogate's vertices, which any tiny p
        # "achieves" — a degenerate calibration target.  All default
        # matchups therefore use the strict ε = 10⁻⁴ cells, which keep
        # both the tolerated count and a meaningful fraction.
        matchups = [
            {"dataset": "dblp", "scheme": "perturbation", "k": 20, "paper_eps": 1e-4},
            {"dataset": "dblp", "scheme": "sparsification", "k": 20, "paper_eps": 1e-4},
            {"dataset": "flickr", "scheme": "perturbation", "k": 20, "paper_eps": 1e-4},
            {
                "dataset": "flickr",
                "scheme": "sparsification",
                "k": 20,
                "paper_eps": 1e-4,
            },
        ]
    by_cell = {(e.dataset, e.k, e.paper_eps): e for e in sweep}
    rows: list[dict] = []
    # The original graph's ten statistics anchor every row of a dataset;
    # compute them once per dataset, not once per row (the ANF pass on
    # the original graph is as costly as evaluating several releases).
    originals: dict[str, dict[str, float]] = {}
    for match in matchups:
        dataset = match["dataset"]
        cell = by_cell.get((dataset, match["k"], match["paper_eps"]))
        if cell is None or not cell.result.success:
            continue
        graph = cell.graph
        if dataset not in originals:
            originals[dataset] = _original_statistics(graph, config)
            row = original_row(graph, config, original=originals[dataset])
            row["dataset"] = dataset
            rows.append(row)
        p = match.get("p")
        if p is None:
            p = calibrate_randomization(
                graph,
                match["scheme"],
                match["k"],
                cell.eps_used,
                seed=(config.seed, 17),
            )
        if not np.isnan(p):
            row = baseline_utility_row(
                graph,
                match["scheme"],
                p,
                config,
                label=f"rand.{match['scheme'][:5]}. (p={p:g})",
                original=originals[dataset],
                executor=executor,
            )
            row["dataset"] = dataset
            rows.append(row)
        row = obfuscation_utility_row(
            cell, config, original=originals[dataset], executor=executor
        )
        row["dataset"] = dataset
        rows.append(row)
    return rows
