"""Figure data builders: distance/degree distributions and anonymity curves.

The paper's figures are boxplots (Figs. 2–3) and cumulative curves
(Fig. 4); here each builder returns the underlying numbers — per-bin
quartiles across sampled worlds, or per-k vertex counts — which the
benchmarks render as text and CSV.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.anonymity import (
    cumulative_anonymity_curve,
    original_anonymity_levels,
    randomization_anonymity_levels_from_observed,
)
from repro.core.obfuscation_check import compute_degree_posterior
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import SweepEntry
from repro.stats.degree import degree_distribution
from repro.stats.registry import backend_histogram
from repro.uncertain.sampling import WorldSampler
from repro.utils.rng import as_rng
from repro.worlds.releases import sample_releases
from repro.worlds.stats_batch import degree_matrix


@dataclass
class BoxplotSeries:
    """Per-bin five-number summaries across sampled worlds.

    Attributes
    ----------
    bins:
        Bin labels (distances or degrees).
    original:
        The original graph's value per bin (the red dots of Figs. 2–3).
    minimum, q1, median, q3, maximum:
        Whisker/box values per bin across worlds.
    """

    bins: np.ndarray
    original: np.ndarray
    minimum: np.ndarray
    q1: np.ndarray
    median: np.ndarray
    q3: np.ndarray
    maximum: np.ndarray


def _boxplot_stats(matrix: np.ndarray) -> dict[str, np.ndarray]:
    return {
        "minimum": matrix.min(axis=0),
        "q1": np.percentile(matrix, 25, axis=0),
        "median": np.percentile(matrix, 50, axis=0),
        "q3": np.percentile(matrix, 75, axis=0),
        "maximum": matrix.max(axis=0),
    }


def _pad(rows: list[np.ndarray], width: int) -> np.ndarray:
    out = np.zeros((len(rows), width), dtype=np.float64)
    for i, row in enumerate(rows):
        out[i, : min(len(row), width)] = row[:width]
    return out


def figure2_data(
    entry: SweepEntry, config: ExperimentConfig, *, max_distance: int = 15
) -> BoxplotSeries:
    """Figure 2: pairwise-distance distribution boxplots vs original.

    Samples ``config.worlds`` possible worlds of the obfuscated graph and
    collects, for each distance 0..``max_distance``, the fraction of
    vertex pairs at that distance (disconnected pairs excluded from the
    numerator, as in the paper's fraction-of-pairs axis).
    """
    assert entry.result.uncertain is not None
    def hist_fn(g):
        return backend_histogram(
            g, config.distance_backend, seed=config.seed
        ).fractions()

    original = _pad([hist_fn(entry.graph)], max_distance + 1)[0]
    sampler = WorldSampler(entry.result.uncertain)
    rng = as_rng((config.seed, 2))
    rows = [hist_fn(sampler.sample(seed=rng)) for _ in range(config.worlds)]
    matrix = _pad(rows, max_distance + 1)
    stats = _boxplot_stats(matrix)
    return BoxplotSeries(
        bins=np.arange(max_distance + 1), original=original, **stats
    )


def figure3_data(
    entry: SweepEntry, config: ExperimentConfig, *, max_degree: int = 8
) -> BoxplotSeries:
    """Figure 3: degree-distribution boxplots vs original (degrees 0..max)."""
    assert entry.result.uncertain is not None
    original = _pad([degree_distribution(entry.graph)], max_degree + 1)[0]
    sampler = WorldSampler(entry.result.uncertain)
    rng = as_rng((config.seed, 3))
    rows = [
        degree_distribution(sampler.sample(seed=rng)) for _ in range(config.worlds)
    ]
    matrix = _pad(rows, max_degree + 1)
    stats = _boxplot_stats(matrix)
    return BoxplotSeries(bins=np.arange(max_degree + 1), original=original, **stats)


def figure4_data(
    sweep: list[SweepEntry],
    config: ExperimentConfig,
    dataset: str,
    *,
    baselines: list[tuple[str, float]] | None = None,
    k_max: int = 80,
) -> dict[str, np.ndarray]:
    """Figure 4: cumulative anonymity curves for every method.

    Returns a mapping ``label → counts`` over the grid ``k = 1..k_max``
    (plus a ``"k"`` entry holding the grid), with one curve for the
    original graph, one per successful obfuscation cell of ``dataset``
    in the sweep, and one per requested baseline ``(scheme, p)``.
    """
    graph = config.graph(dataset)
    k_grid = np.arange(1, k_max + 1, dtype=np.float64)
    curves: dict[str, np.ndarray] = {"k": k_grid}
    curves["original"] = cumulative_anonymity_curve(
        original_anonymity_levels(graph), k_grid
    )
    for entry in sweep:
        if entry.dataset != dataset or not entry.result.success:
            continue
        posterior = compute_degree_posterior(
            entry.result.uncertain, width=int(graph.degrees().max()) + 2
        )
        levels = posterior.obfuscation_levels(graph.degrees())
        label = f"obf. k={entry.k}, eps={entry.paper_eps:g}"
        curves[label] = cumulative_anonymity_curve(levels, k_grid)
    rng = as_rng((config.seed, 4))
    for scheme, p in baselines or []:
        # One batched possible-world draw (stream-identical to one
        # repro.baselines.randomization release) whose degree sequence
        # feeds the vectorised anonymity pass — no Graph materialised.
        observed = degree_matrix(
            sample_releases(graph, scheme, p, 1, seed=rng)
        )[0]
        levels = randomization_anonymity_levels_from_observed(
            graph, observed, scheme, p
        )
        curves[f"{scheme} p={p:g}"] = cumulative_anonymity_curve(levels, k_grid)
    return curves
