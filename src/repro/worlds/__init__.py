"""repro.worlds — the possible-world engine for §6 utility evaluation.

The paper's utility tables (Tables 4–6) average ten statistics over
~100 sampled possible worlds per obfuscated graph (Equation 9).  This
package is the one code path that computes those means: it draws and
measures worlds in batches, and :class:`WorldStatisticsEstimator` is
what the harness, the CLI and the benchmarks call.

Architecture
------------
Four layers, each consuming the previous one's flat-array output::

    batch.py        WorldBatch — W worlds from one (W, m) Bernoulli
                    pass over the shared candidate-pair arrays, stored
                    bit-packed; exposes pair-major uint64 keep lanes of
                    up to 64 worlds, the W·n-vertex disjoint-union CSR,
                    and lazy per-world Graph materialisation via
                    Graph.from_edge_array.
    stats_batch.py  degree family (S_NE, S_AD, S_MD, S_DV, S_PL) from
                    one weighted bincount per world; triangles / S_CC
                    bit-sliced — the forward kernel of
                    repro.graphs.triangles enumerates a 64-world lane
                    slice's union once (or each world alone, when the
                    union has more wedges than the worlds together).
    anf_batch.py    multi-world HyperANF — the one kernel of
                    repro.anf.hyperanf run on the union CSR: registers
                    stacked into a (W·n, 2^b) uint8 matrix, merged per
                    step by a degree-grouped segmented max over a change
                    frontier, per-world fixed-point convergence; yields
                    the four distance statistics.
    estimator.py    BatchStatisticsEngine — name-based kernel dispatch,
                    configured only by the statistic family it is given,
                    turning any WorldBatch into per-world statistic
                    vectors, with the ANF names and the structural names
                    planned into world chunks by separate rules — and
                    WorldStatisticsEstimator, which samples and
                    evaluates worlds a chunk at a time with bounded
                    memory.
    releases.py     sample_releases — Table-6 randomization baselines
                    (sparsification / perturbation) drawn as one
                    WorldBatch per scheme: a release scheme is a
                    distribution over possible worlds, so the same
                    kernels that evaluate obfuscation worlds evaluate
                    baseline releases.

Determinism contract: a batch consumes the RNG stream exactly as
:class:`repro.uncertain.sampling.WorldSampler` would (NumPy fills
``(W, m)`` uniforms in C order), so for equal seeds the engine
reproduces the *same worlds* as a world-by-world loop and — by sharing
its statistic arithmetic — the same table values.  Equivalence tests
in ``tests/worlds/`` pin both properties against the sequential oracle
in ``tests/oracles/worlds.py``.
"""

from repro.worlds.anf_batch import anf_distance_statistics_batch, hyperanf_batch
from repro.worlds.batch import WorldBatch
from repro.worlds.estimator import (
    BATCHED_STATISTIC_NAMES,
    BatchStatisticsEngine,
    WorldStatisticsEstimator,
    estimate_statistic,
)
from repro.worlds.releases import RELEASE_SCHEMES, sample_releases
from repro.worlds.stats_batch import (
    clustering_coefficients_batch,
    degree_matrix,
    degree_statistics_batch,
    triangle_counts_batch,
)

__all__ = [
    "WorldBatch",
    "WorldStatisticsEstimator",
    "estimate_statistic",
    "BatchStatisticsEngine",
    "BATCHED_STATISTIC_NAMES",
    "RELEASE_SCHEMES",
    "sample_releases",
    "degree_matrix",
    "degree_statistics_batch",
    "triangle_counts_batch",
    "clustering_coefficients_batch",
    "hyperanf_batch",
    "anf_distance_statistics_batch",
]
