"""The scalar degree posterior, the reference for the batched engine.

:func:`compute_degree_posterior_scalar` builds ``X_v(ω)`` with one
scalar :func:`repro.core.degree_pmf` call per vertex.  The tests pin
:func:`repro.core.obfuscation_check.compute_degree_posterior` against
it, and ``benchmarks/bench_posterior_batch.py`` times the two side by
side.
"""

from __future__ import annotations

import numpy as np

from repro.core.degree_distribution import degree_pmf
from repro.core.obfuscation_check import DegreePosterior
from repro.uncertain.graph import UncertainGraph


def compute_degree_posterior_scalar(
    uncertain: UncertainGraph,
    *,
    method: str = "auto",
    width: int | None = None,
) -> DegreePosterior:
    """:func:`repro.core.obfuscation_check.compute_degree_posterior`,
    one vertex at a time (same ``method`` and ``width`` semantics)."""
    n = uncertain.num_vertices
    prob_vectors = [uncertain.incident_probabilities(v) for v in range(n)]
    if width is None:
        max_support = max((len(p) for p in prob_vectors), default=0)
        width = max_support + 1
    matrix = np.zeros((n, width), dtype=np.float64)
    for v, probs in enumerate(prob_vectors):
        matrix[v] = degree_pmf(probs, method=method, support=width - 1)
    return DegreePosterior(matrix)
