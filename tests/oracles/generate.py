"""The sequential Algorithm-2 engine, the reference for the array engine.

:func:`generate_obfuscation` runs Algorithm 2 one attempt at a time:
per-draw candidate toggling (:func:`build_candidate_set`), the
pair-keyed perturbations of the attempt's candidate set, and one full
:func:`repro.core.obfuscation_check.compute_degree_posterior` per
attempt.  It draws the master RNG stream exactly as
:func:`repro.core.generate.generate_obfuscation` does, so at a fixed
seed both return the same candidate sets, pair probabilities, ε̃ and
draw counts; the array engine's folded posterior rows may drift
≤1e-12 from this full recompute.

:func:`run_sequential` runs the Algorithm-1 search on this engine by
swapping the one name :mod:`repro.core.search` looks Algorithm 2 up
through.
"""

from __future__ import annotations

import math

import numpy as np

import repro.core.search
from repro.core.generate import (
    _BATCH,
    _MAX_DRAW_FACTOR,
    CandidateStallError,
    SearchContext,
    _candidate_batch_size,
    _pair_stream_perturbations,
    _record_outcome,
    _stall_message,
)
from repro.core.obfuscation_check import compute_degree_posterior
from repro.core.types import GenerationOutcome, ObfuscationParams
from repro.graphs.graph import Graph
from repro.uncertain.graph import UncertainGraph
from repro.utils.rng import as_rng


def build_candidate_set(
    n: int,
    edge_set: set[tuple[int, int]],
    target_size: int,
    q_probs: np.ndarray,
    rng: np.random.Generator,
    *,
    batch_size: int = _BATCH,
) -> tuple[set[tuple[int, int]], int]:
    """Lines 6–12 of Algorithm 2: grow E_C from E by Q-weighted toggles.

    One Python step per drawn pair, reference for
    :func:`repro.core.generate._build_candidate_codes`, which draws the
    same batches through :class:`repro.core.generate.WeightedVertexSampler`
    (bit-equal to ``rng.choice``).  Returns the candidate set and the
    number of scalar draws consumed (two per candidate pair).
    """
    candidate: set[tuple[int, int]] = set(edge_set)
    max_draws = max(_MAX_DRAW_FACTOR * max(target_size, 1), 10_000)
    draws_used = 0
    while len(candidate) != target_size:
        if draws_used >= max_draws:
            raise CandidateStallError(
                _stall_message(target_size, draws_used), draws_used // 2
            )
        batch = rng.choice(n, size=2 * batch_size, p=q_probs, replace=True)
        draws_used += 2 * batch_size
        for i in range(0, len(batch), 2):
            u, v = int(batch[i]), int(batch[i + 1])
            if u == v:
                continue
            key = (u, v) if u < v else (v, u)
            if key in edge_set:
                candidate.discard(key)
            else:
                candidate.add(key)
            if len(candidate) == target_size:
                break
    return candidate, draws_used


def generate_obfuscation(
    graph: Graph,
    sigma: float,
    params: ObfuscationParams,
    *,
    seed=None,
    excluded: np.ndarray | None = None,
    context: SearchContext | None = None,
) -> GenerationOutcome:
    """Algorithm 2, attempt by attempt (the product function's signature).

    Feeds the ``generate.*`` registry counters through the product's
    own hook, so registry pins hold on either engine.  Every row is
    recomputed: ``rows_folded`` is 0.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    rng = as_rng(seed)
    if context is None:
        context = SearchContext.for_params(graph, params)
    else:
        context.check(graph, params)
    n, m = context.n, context.m
    if n < 2 or m == 0:
        raise ValueError("graph must have at least two vertices and one edge")
    if excluded is None:
        setup = context.sigma_setup(sigma)
    else:
        setup = context.setup_for_excluded(sigma, excluded)
    target_size = int(round(params.c * m))
    if target_size > m + setup.available_additions:
        raise ValueError(
            f"candidate-set target c|E|={target_size} exceeds the {m} edges "
            f"plus {setup.available_additions} addable non-edges outside H"
        )

    edge_set = set(graph.edges())
    pair_key = int(rng.integers(0, 2**63 - 1))
    k_threshold = math.log2(params.k) - 1e-12
    batch_size = _candidate_batch_size(target_size, m)
    best = GenerationOutcome(eps_achieved=float("inf"), uncertain=None, sigma=sigma)
    pairs_drawn = 0
    evaluated = 0
    for attempt in range(params.attempts):
        try:
            candidate, draws_used = build_candidate_set(
                n, edge_set, target_size, setup.q_probs, rng,
                batch_size=batch_size,
            )
        except CandidateStallError as stall:
            pairs_drawn += stall.pairs_drawn
            continue
        pairs_drawn += draws_used // 2
        pairs = np.array(sorted(candidate), dtype=np.int64)
        us, vs = pairs[:, 0], pairs[:, 1]
        codes = us * np.int64(n) + vs
        r = _pair_stream_perturbations(
            pair_key, codes, us, vs, sigma, setup, params.q
        )
        is_edge = np.isin(codes, context.edge_codes, assume_unique=True)
        probs = np.where(is_edge, 1.0 - r, r)
        uncertain = UncertainGraph.from_arrays(n, us, vs, probs, keep_zero=True)
        posterior = compute_degree_posterior(
            uncertain, method=params.method, width=context.width
        )
        evaluated += 1
        entropies = posterior.column_entropies(context.distinct_degrees)
        obfuscated = entropies[context.degree_inverse] >= k_threshold
        eps_attempt = float((~obfuscated).sum()) / n
        if eps_attempt <= params.eps and eps_attempt < best.eps_achieved:
            best = GenerationOutcome(
                eps_achieved=eps_attempt,
                uncertain=uncertain,
                sigma=sigma,
                attempts_made=attempt + 1,
            )
    if best.uncertain is None:
        best.attempts_made = params.attempts
    best.pairs_drawn = pairs_drawn
    best.rows_recomputed = n * evaluated
    return _record_outcome(best)


def run_sequential(search, *args, **kwargs):
    """Run ``search`` (``obfuscate`` or ``obfuscate_with_fallback``) with
    every Algorithm-2 probe on :func:`generate_obfuscation`."""
    product = repro.core.search.generate_obfuscation
    repro.core.search.generate_obfuscation = generate_obfuscation
    try:
        return search(*args, **kwargs)
    finally:
        repro.core.search.generate_obfuscation = product
