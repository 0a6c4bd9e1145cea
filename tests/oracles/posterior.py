"""The scalar degree posterior and the batch Lemma-1 DP, the references
for the batched engine.

:func:`compute_degree_posterior_scalar` builds ``X_v(ω)`` with one
scalar :func:`repro.core.degree_pmf` call per vertex, over Bernoulli
vectors that :func:`incident_probabilities` gathers with a plain loop
over the pair arrays, so the reference shares no code with the
incidence CSR the product certifies from.  The tests pin
:func:`repro.core.obfuscation_check.compute_degree_posterior` against
it, and ``benchmarks/bench_posterior_batch.py`` times the two side by
side.  :func:`poisson_binomial_pmf_batch` runs the same DP over a dense
``(rows, ℓ)`` matrix; the fold tests use it as the cold-row reference.
"""

from __future__ import annotations

import numpy as np

from repro.core.degree_distribution import degree_pmf
from repro.core.obfuscation_check import DegreePosterior
from repro.uncertain.graph import UncertainGraph


def incident_probabilities(uncertain: UncertainGraph) -> list[np.ndarray]:
    """Each vertex's candidate-pair probabilities, in pair order.

    The Bernoulli vector of Equation 4, scalar counterpart of
    :meth:`repro.uncertain.graph.UncertainGraph.incident_probability_csr`.
    """
    rows: list[list[float]] = [[] for _ in range(uncertain.num_vertices)]
    for u, v, p in zip(*(a.tolist() for a in uncertain.pair_arrays())):
        rows[u].append(p)
        rows[v].append(p)
    return [np.array(row, dtype=np.float64) for row in rows]


def compute_degree_posterior_scalar(
    uncertain: UncertainGraph,
    *,
    method: str = "auto",
    width: int | None = None,
) -> DegreePosterior:
    """:func:`repro.core.obfuscation_check.compute_degree_posterior`,
    one vertex at a time (same ``method`` and ``width`` semantics)."""
    n = uncertain.num_vertices
    prob_vectors = incident_probabilities(uncertain)
    if width is None:
        max_support = max((len(p) for p in prob_vectors), default=0)
        width = max_support + 1
    matrix = np.zeros((n, width), dtype=np.float64)
    for v, probs in enumerate(prob_vectors):
        matrix[v] = degree_pmf(probs, method=method, support=width - 1)
    return DegreePosterior(matrix)


def poisson_binomial_pmf_batch(
    prob_matrix: np.ndarray, *, support: int | None = None
) -> np.ndarray:
    """Lemma-1 DP over a whole batch of Bernoulli vectors at once.

    Runs the same shift-and-mix fold as
    :func:`repro.core.poisson_binomial_pmf`, but each step updates a
    2-D column slice, advancing every row of the batch simultaneously.
    Row ``r`` of the result equals ``poisson_binomial_pmf(prob_matrix[r])``
    bit-for-bit (identical IEEE operations in identical order).

    Parameters
    ----------
    prob_matrix:
        ``(rows, ℓ)`` matrix; row ``r`` holds the success probabilities
        of row ``r``'s Bernoulli addends.  Padding a row with zeros is a
        numerical no-op (``x·1 + y·0 = x`` exactly), so callers may pad
        ragged inputs.
    support:
        Output has ``support + 1`` columns (default ℓ).  When
        ``support < ℓ`` the fold itself is truncated, and the retained
        entries still match the untruncated DP exactly (tail mass is
        dropped, never lumped, mirroring :func:`repro.core.degree_pmf`).

    Returns
    -------
    numpy.ndarray
        ``(rows, support + 1)`` matrix of point probabilities.
    """
    prob_matrix = np.asarray(prob_matrix, dtype=np.float64)
    if prob_matrix.ndim != 2:
        raise ValueError("prob_matrix must be 2-D (rows × addends)")
    rows, ell = prob_matrix.shape
    if prob_matrix.size and (
        prob_matrix.min() < 0.0 or prob_matrix.max() > 1.0
    ):
        raise ValueError("Bernoulli probabilities must lie in [0, 1]")
    width = ell if support is None else int(support)
    if width < 0:
        raise ValueError(f"support must be non-negative, got {support}")
    out = np.zeros((rows, width + 1), dtype=np.float64)
    out[:, 0] = 1.0
    for step in range(ell):
        p = prob_matrix[:, step : step + 1]
        filled = min(step + 1, width)
        out[:, 1 : filled + 1] = (
            out[:, 1 : filled + 1] * (1.0 - p) + out[:, :filled] * p
        )
        out[:, 0] *= 1.0 - p[:, 0]
    return out
