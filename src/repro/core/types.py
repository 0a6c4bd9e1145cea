"""Parameter and result dataclasses for the obfuscation algorithms."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.uncertain.graph import UncertainGraph


@dataclass(frozen=True)
class ObfuscationParams:
    """Inputs of Algorithms 1–2, with the paper's §7.1 defaults.

    Attributes
    ----------
    k:
        Required obfuscation level (entropy lower bound ``log2 k``).
    eps:
        Tolerance — fraction of vertices allowed to stay under-obfuscated.
    c:
        Candidate-set size multiplier: ``|E_C| = c·|E|``.  Paper default 2,
        with 3 as the fallback when the σ search fails to bracket.
    q:
        White-noise level: fraction of pairs whose perturbation is drawn
        uniformly instead of from ``R_σ(e)`` (defeats thresholding at 0.5).
    attempts:
        ``t`` — randomized tries per σ inside Algorithm 2 (paper used 5).
    method:
        Degree-PMF method for the Definition-2 checker
        (``"exact"``/``"normal"``/``"auto"``).
    sigma_init:
        Initial upper bound for the doubling phase of Algorithm 1.
    sigma_max:
        Doubling cap; exceeding it declares failure (paper's remedy is
        increasing ``c``).
    delta:
        Binary-search termination width.  The paper's Table 2 floor of
        ``5.96·10⁻⁸ = 2⁻²⁴`` corresponds to ``delta ≈ 1e-7`` with
        ``sigma_init = 1``; the default here is coarser so that full
        experiment sweeps stay laptop-friendly.
    weighting:
        ``"uniqueness"`` — the paper's design: candidate pairs are
        Q-sampled by vertex uniqueness and σ is redistributed per Eq. 7;
        ``"uniform"`` — ablation: uniform pair sampling and a flat
        ``σ(e) = σ``, isolating how much the uniqueness targeting buys.
    """

    k: float
    eps: float
    c: float = 2.0
    q: float = 0.01
    attempts: int = 5
    method: str = "auto"
    sigma_init: float = 1.0
    sigma_max: float = 128.0
    delta: float = 1e-3
    weighting: str = "uniqueness"

    def __post_init__(self):
        # Every bound is written so that NaN fails it.
        if not self.k >= 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not 0.0 <= self.eps < 1.0:
            raise ValueError(f"eps must be in [0, 1), got {self.eps}")
        if not 1.0 <= self.c < math.inf:
            raise ValueError(f"c must be finite and >= 1, got {self.c}")
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {self.q}")
        if not self.attempts >= 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if not 0 < self.sigma_init <= self.sigma_max < math.inf:
            raise ValueError(
                "need 0 < sigma_init <= sigma_max < inf, got "
                f"sigma_init={self.sigma_init}, sigma_max={self.sigma_max}"
            )
        if not 0 < self.delta < math.inf:
            raise ValueError(f"delta must be finite and > 0, got {self.delta}")
        if self.method not in ("exact", "normal", "auto"):
            raise ValueError(
                f"method must be 'exact', 'normal' or 'auto', got {self.method!r}"
            )
        if self.weighting not in ("uniqueness", "uniform"):
            raise ValueError(
                f"weighting must be 'uniqueness' or 'uniform', got {self.weighting!r}"
            )


@dataclass
class GenerationOutcome:
    """Result of one :func:`generate_obfuscation` call (Algorithm 2).

    ``eps_achieved`` is ``inf`` when none of the ``t`` attempts met the
    tolerance, mirroring the paper's ``ε̃ = ∞`` sentinel.

    ``attempts_made`` is the 1-based index of the attempt that produced
    the returned obfuscation (the *winning* attempt), or the total
    number of attempts executed when every attempt failed.

    ``pairs_drawn`` counts the candidate-pair draws actually consumed by
    Line 7's Q-sampling across all attempts — including self-pairs,
    repeats and the unused tail of the final sampling batch — the
    honest denominator for Table-3 throughput accounting.

    ``rows_folded`` / ``rows_recomputed`` report posterior fold-path
    coverage: of the ``n`` degree-PMF rows each evaluated attempt's
    Definition-2 check needed, how many were served from the probe's
    cached base rows plus a fold-in of the attempt's additions, versus
    recomputed (CLT rows, and exact rows that lost an edge to candidate
    toggling) — the counters are how benchmarks assert the fold path
    stays hot.
    """

    eps_achieved: float
    uncertain: UncertainGraph | None
    sigma: float
    attempts_made: int = 0
    pairs_drawn: int = 0
    rows_folded: int = 0
    rows_recomputed: int = 0

    @property
    def success(self) -> bool:
        """Whether a (k, ε)-obfuscation was found at this σ."""
        return self.uncertain is not None


@dataclass
class SearchStep:
    """One probe of the Algorithm-1 σ search (for traces/reporting)."""

    sigma: float
    eps_achieved: float
    phase: str  # "doubling" or "bisection"

    @property
    def success(self) -> bool:
        """Whether this probe produced a valid obfuscation."""
        return self.eps_achieved != float("inf")


@dataclass
class ObfuscationResult:
    """Final output of :func:`repro.core.obfuscate` (Algorithm 1).

    Attributes
    ----------
    uncertain:
        The (k, ε)-obfuscated graph, or ``None`` on failure.
    sigma:
        The smallest σ at which generation succeeded.
    eps_achieved:
        The realised tolerance ``ε̃ ≤ ε`` of the returned graph.
    params:
        Echo of the input parameters.
    trace:
        Every (σ, ε̃) probe in order — doubling phase then bisection.
    edges_processed:
        Total candidate-pair draws actually consumed across all probes
        (the sum of per-probe ``pairs_drawn`` — throughput accounting
        for the Table 3 reproduction).
    rows_folded, rows_recomputed:
        Posterior fold-path coverage summed over all probes (see
        :class:`GenerationOutcome`);
        ``rows_folded / (rows_folded + rows_recomputed)`` is the
        fraction of degree-PMF rows the base/fold path served without a
        recompute.
    elapsed_seconds:
        Wall-clock time of the whole search.
    """

    uncertain: UncertainGraph | None
    sigma: float
    eps_achieved: float
    params: ObfuscationParams
    trace: list[SearchStep] = field(default_factory=list)
    edges_processed: int = 0
    rows_folded: int = 0
    rows_recomputed: int = 0
    elapsed_seconds: float = 0.0

    @property
    def success(self) -> bool:
        """Whether the search produced a valid (k, ε)-obfuscation."""
        return self.uncertain is not None

    @property
    def edges_per_second(self) -> float:
        """Throughput in processed candidate pairs per second (Table 3)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.edges_processed / self.elapsed_seconds

    @property
    def fold_fraction(self) -> float:
        """Fraction of posterior rows served by the base/fold path."""
        total = self.rows_folded + self.rows_recomputed
        if total == 0:
            return 0.0
        return self.rows_folded / total
