"""Utility statistics for certain and uncertain graphs (§6 of the paper)."""

from repro.stats.degree import (
    average_degree,
    degree_distribution,
    degree_variance,
    expected_average_degree,
    expected_num_edges,
    max_degree,
    num_edges,
    powerlaw_exponent,
)
from repro.stats.distance import (
    DistanceHistogram,
    average_distance,
    connectivity_length,
    diameter,
    distance_histogram,
    effective_diameter,
    pairwise_distance_distribution,
)
from repro.stats.registry import (
    PAPER_STATISTIC_NAMES,
    degree_only_statistics,
    paper_statistics,
)
from repro.stats.sampling import (
    SampleSummary,
    hoeffding_error_probability,
    hoeffding_sample_size,
)

__all__ = [
    "num_edges",
    "average_degree",
    "max_degree",
    "degree_variance",
    "degree_distribution",
    "powerlaw_exponent",
    "expected_num_edges",
    "expected_average_degree",
    "DistanceHistogram",
    "distance_histogram",
    "average_distance",
    "effective_diameter",
    "connectivity_length",
    "diameter",
    "pairwise_distance_distribution",
    "SampleSummary",
    "hoeffding_error_probability",
    "hoeffding_sample_size",
    "PAPER_STATISTIC_NAMES",
    "paper_statistics",
    "degree_only_statistics",
]
