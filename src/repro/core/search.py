"""Algorithm 1 — minimal-uncertainty (k, ε)-obfuscation via binary search.

The driver doubles an initial σ upper bound until Algorithm 2 succeeds
(or the :class:`~repro.core.types.ObfuscationParams.sigma_max` cap is
hit), then bisects ``[0, σ_u]`` down to width ``delta``, keeping the
*last successful* — i.e. smallest-σ — obfuscation found.  Smaller σ means
less injected uncertainty, hence higher utility; the search realises the
paper's "inject the minimal amount of uncertainty" objective.

The result's run counters (``edges_processed``, ``rows_folded``,
``rows_recomputed``) are accumulated per call from each probe's
:class:`~repro.core.types.GenerationOutcome` — *not* from
:mod:`repro.obs` registry deltas, which are process-global and would
absorb the totals of any search running concurrently on another thread
(or of coalesced server work).  The registry still receives every
Algorithm-2 call's totals via ``generate.py`` for manifests and
``repro trace``; for a single search after ``reset_metrics()`` the two
accountings agree exactly (pinned by the counter-coherence tests).
"""

from __future__ import annotations

import time

from repro.core.generate import SearchContext, generate_obfuscation
from repro.core.types import (
    GenerationOutcome,
    ObfuscationParams,
    ObfuscationResult,
    SearchStep,
)
from repro.graphs.graph import Graph
from repro.obs.metrics import REGISTRY as _OBS
from repro.obs.trace import span
from repro.utils.rng import as_rng

_SEARCH_PROBES = _OBS.counter("search.probes")
_SEARCH_RUNS = _OBS.counter("search.runs")


def obfuscate(
    graph: Graph,
    k: float,
    eps: float,
    *,
    params: ObfuscationParams | None = None,
    seed=None,
    context: SearchContext | None = None,
    **overrides,
) -> ObfuscationResult:
    """Compute a minimal-σ (k, ε)-obfuscation of ``graph`` (Algorithm 1).

    Parameters
    ----------
    graph:
        The original graph ``G``.
    k, eps:
        Privacy requirement of Definition 2.
    params:
        Full parameter bundle; if omitted one is built from ``k``,
        ``eps`` and keyword ``overrides`` (e.g. ``c=3, q=0.05,
        delta=1e-4``).
    seed:
        RNG seed/stream; every Algorithm-2 probe draws from it in
        sequence, so a fixed seed reproduces the entire search.
    context:
        Optional :class:`repro.core.generate.SearchContext` to reuse
        (``obfuscate_with_fallback`` shares one across its ``c``
        escalations, replaying the doubling ladder's σ values against
        the memoised uniqueness/Q-weights).  Built internally when
        omitted.

    Returns
    -------
    ObfuscationResult
        ``success`` is False when even ``σ = sigma_max`` cannot reach the
        tolerance — the paper's remedy is retrying with larger ``c``
        (see Table 2's (*) entries).

    Examples
    --------
    >>> from repro.graphs import erdos_renyi
    >>> g = erdos_renyi(60, 0.15, seed=1)
    >>> result = obfuscate(g, k=3, eps=0.2, seed=7, attempts=2, delta=0.05)
    >>> result.success
    True
    """
    if params is None:
        params = ObfuscationParams(k=k, eps=eps, **overrides)
    elif overrides:
        raise TypeError("pass either a params bundle or keyword overrides, not both")
    rng = as_rng(seed)
    if context is None:
        context = SearchContext.for_params(graph, params)
    t0 = time.perf_counter()
    trace: list[SearchStep] = []
    # Run counters accumulate per call from each probe's outcome —
    # scoped to THIS search, so concurrent searches (threads, coalesced
    # server work) never absorb each other's totals.
    totals = {"pairs_drawn": 0, "rows_folded": 0, "rows_recomputed": 0}
    _SEARCH_RUNS.add(1)

    def probe(sigma: float, phase: str) -> GenerationOutcome:
        """One Algorithm-2 evaluation, recorded in the search trace."""
        _SEARCH_PROBES.add(1)
        with span("probe", sigma=sigma, phase=phase) as sp:
            outcome = generate_obfuscation(
                graph, sigma, params, seed=rng, context=context
            )
            sp.set(
                eps_achieved=outcome.eps_achieved,
                attempts=outcome.attempts_made,
                pairs_drawn=outcome.pairs_drawn,
            )
        totals["pairs_drawn"] += outcome.pairs_drawn
        totals["rows_folded"] += outcome.rows_folded
        totals["rows_recomputed"] += outcome.rows_recomputed
        trace.append(
            SearchStep(sigma=sigma, eps_achieved=outcome.eps_achieved, phase=phase)
        )
        return outcome

    def result(found: GenerationOutcome | None) -> ObfuscationResult:
        return ObfuscationResult(
            uncertain=found.uncertain if found is not None else None,
            sigma=found.sigma if found is not None else float("nan"),
            eps_achieved=(
                found.eps_achieved if found is not None else float("inf")
            ),
            params=params,
            trace=trace,
            edges_processed=totals["pairs_drawn"],
            rows_folded=totals["rows_folded"],
            rows_recomputed=totals["rows_recomputed"],
            elapsed_seconds=time.perf_counter() - t0,
        )

    with span("obfuscate", k=params.k, eps=params.eps, c=params.c):
        # Phase 1 (Lines 1-6): double σ_u until a (k, ε)-obfuscation
        # appears.
        sigma_upper = params.sigma_init
        found: GenerationOutcome | None = None
        with span("doubling"):
            while True:
                outcome = probe(sigma_upper, "doubling")
                if outcome.success:
                    found = outcome
                    break
                sigma_upper *= 2.0
                if sigma_upper > params.sigma_max:
                    return result(None)

        # Phase 2 (Lines 7-12): bisect [0, σ_u], keeping the smallest
        # success.
        sigma_lower = 0.0
        with span("bisection"):
            while sigma_lower + params.delta < sigma_upper:
                sigma_mid = 0.5 * (sigma_lower + sigma_upper)
                outcome = probe(sigma_mid, "bisection")
                if outcome.success:
                    found = outcome
                    sigma_upper = sigma_mid
                else:
                    sigma_lower = sigma_mid

        assert found is not None  # guaranteed by phase 1
        return result(found)


def obfuscate_with_fallback(
    graph: Graph,
    k: float,
    eps: float,
    *,
    c_values: tuple[float, ...] = (2.0, 3.0),
    seed=None,
    **overrides,
) -> ObfuscationResult:
    """Run :func:`obfuscate`, escalating ``c`` on failure (§7.1 protocol).

    The paper marks Table-2 entries where ``c = 2`` could not bracket a
    feasible σ and ``c = 3`` resolved it; this helper automates exactly
    that escalation and records the ``c`` actually used in the returned
    result's ``params``.

    All escalations share one :class:`~repro.core.generate.SearchContext`
    (``c`` does not enter the per-σ setup), so the second run's doubling
    ladder replays against memoised uniqueness/Q-weights.
    """
    rng = as_rng(seed)
    result: ObfuscationResult | None = None
    context: SearchContext | None = None
    for c in c_values:
        params = ObfuscationParams(k=k, eps=eps, c=c, **overrides)
        if context is None:
            context = SearchContext.for_params(graph, params)
        result = obfuscate(graph, k, eps, params=params, seed=rng, context=context)
        if result.success:
            return result
    assert result is not None
    return result
