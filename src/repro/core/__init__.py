"""The paper's core contribution: (k, ε)-obfuscation by uncertainty injection.

Submodules map onto the paper's sections:

* :mod:`repro.core.degree_distribution` — §4 (Lemma 1 DP, CLT approximation)
* :mod:`repro.core.obfuscation_check` — §3/§4 (X/Y matrices, Definition 2)
* :mod:`repro.core.uniqueness` — §5.2 (Definition 3)
* :mod:`repro.core.perturbation` — §5.1 (Equation 6)
* :mod:`repro.core.generate` — §5.3 Algorithm 2
* :mod:`repro.core.search` — §5.3 Algorithm 1
"""

from repro.core.degree_distribution import (
    AUTO_EXACT_LIMIT,
    degree_pmf,
    normal_approx_pmf,
    poisson_binomial_mean_var,
    poisson_binomial_pmf,
)
from repro.core.generate import (
    CandidateStallError,
    SearchContext,
    SigmaSetup,
    generate_obfuscation,
    select_excluded_vertices,
)
from repro.core.obfuscation_check import (
    DegreePosterior,
    compute_degree_posterior,
    is_k_eps_obfuscation,
    tolerance_achieved,
)
from repro.core.posterior_batch import (
    degree_posterior_matrix,
    normal_approx_pmf_batch,
)
from repro.core.perturbation import (
    pair_stream_uniforms,
    perturbations_from_uniforms,
    truncated_normal_cdf,
    truncated_normal_mean,
    truncated_normal_pdf,
    truncated_normal_ppf,
)
from repro.core.search import obfuscate, obfuscate_with_fallback
from repro.core.types import (
    GenerationOutcome,
    ObfuscationParams,
    ObfuscationResult,
    SearchStep,
)
from repro.core.uniqueness import (
    degree_commonness,
    degree_uniqueness,
    gaussian_kernel,
    pair_uniqueness,
    redistribute_sigma_invariant,
)

__all__ = [
    "AUTO_EXACT_LIMIT",
    "poisson_binomial_pmf",
    "normal_approx_pmf",
    "normal_approx_pmf_batch",
    "degree_pmf",
    "degree_posterior_matrix",
    "poisson_binomial_mean_var",
    "DegreePosterior",
    "compute_degree_posterior",
    "tolerance_achieved",
    "is_k_eps_obfuscation",
    "gaussian_kernel",
    "degree_commonness",
    "degree_uniqueness",
    "pair_uniqueness",
    "redistribute_sigma_invariant",
    "truncated_normal_pdf",
    "truncated_normal_cdf",
    "truncated_normal_mean",
    "truncated_normal_ppf",
    "pair_stream_uniforms",
    "perturbations_from_uniforms",
    "generate_obfuscation",
    "select_excluded_vertices",
    "CandidateStallError",
    "SearchContext",
    "SigmaSetup",
    "obfuscate",
    "obfuscate_with_fallback",
    "ObfuscationParams",
    "ObfuscationResult",
    "GenerationOutcome",
    "SearchStep",
]
