"""Algorithm 2 — ``GenerateObfuscation``: one randomized attempt batch.

Given a target σ, the routine:

1. computes σ-uniqueness of every vertex (Definition 3 with θ = σ);
2. excludes the ``⌈ε/2·n⌉`` most unique vertices (the set ``H``) from
   all uncertainty injection;
3. builds the sampling distribution ``Q ∝ U_σ(P(v))`` over ``V \\ H``;
4. for each of ``t`` attempts: grows/shrinks the candidate set ``E_C``
   from ``E`` by toggling Q-sampled pairs until ``|E_C| = c·|E|``,
   redistributes σ into per-pair ``σ(e)`` (Eq. 7), draws perturbations
   ``r_e ~ R_σ(e)`` (uniform for a q-fraction), and assigns
   ``p(e) = 1 - r_e`` for true edges / ``r_e`` for non-edges;
5. verifies Definition 2 and returns the attempt with the smallest
   realised tolerance ``ε̃ ≤ ε`` (or ``ε̃ = ∞`` if all attempts failed).

True edges that get *removed* from ``E_C`` become certain non-edges
(``p = 0``) — the coarse whole-edge deletions that partial perturbation
mostly, but not entirely, replaces.

Every pair's perturbation randomness is keyed by the pair itself: one
master key is drawn per Algorithm-2 call, and each pair's ``R_σ(e)``
uniform, white-noise coin and white-noise value come from counter-based
substreams keyed by the pair code
(:func:`repro.core.perturbation.pair_stream_uniforms`), sampled through
the inverse CDF in a single pass.  σ(e) uses the
candidate-set-independent Eq. 7 normaliser
(:func:`repro.core.uniqueness.redistribute_sigma_invariant`), so a
pair's probability is a pure function of ``(key, pair code, σ)`` and
pairs shared between attempts keep bit-equal probabilities.

Candidate sets are built by vectorised toggling over pair codes
(:func:`_build_candidate_codes`), all σ-independent setup is hoisted
into a :class:`SearchContext` shared across the probes of Algorithm 1's
binary search, and the Definition-2 check evaluates all of a probe's
attempts in one stacked pass that serves most rows from per-probe base
rows plus a fold-in of each attempt's additions
(:func:`_generate_pair_keyed_array`).

The per-draw Python loop with a full posterior recompute per attempt
is the reference in ``tests/oracles/generate.py``.  It consumes the
same RNG stream call for call, so a fixed seed produces bit-identical
candidate sets, released graphs and search traces on either — the
property the seed-equivalence tests pin (the fold path may drift
≤1e-12 from the full recompute, which the stream-equivalence tests
bound).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.degree_distribution import AUTO_EXACT_LIMIT
from repro.core.obfuscation_check import (
    column_mass_stack,
    entropies_from_column_mass,
)
from repro.core.perturbation import (
    PAIR_SUBSTREAM_PERTURBATION,
    PAIR_SUBSTREAM_WHITE_MASK,
    PAIR_SUBSTREAM_WHITE_VALUE,
    pair_stream_uniforms,
    perturbations_from_uniforms,
)
from repro.core.posterior_batch import (
    _incidence_csr,
    _segment_moments,
    degree_posterior_matrix,
    fold_in_staircase,
    normal_approx_pmf_batch,
)
from repro.core.types import GenerationOutcome, ObfuscationParams
from repro.obs.metrics import REGISTRY as _OBS
from repro.core.uniqueness import (
    degree_commonness_from_histogram,
    degree_histogram,
    pair_uniqueness,
    redistribute_sigma_invariant,
)
from repro.graphs.graph import Graph
from repro.graphs.traversal import multi_range
from repro.uncertain.graph import UncertainGraph
from repro.utils.rng import as_rng

#: Pairs are Q-sampled in batches of this size to amortise the cost of
#: weighted sampling over the vertex distribution.  At the paper's
#: ``c = 2`` a typical attempt needs ≈ ``|E|`` net additions, so one
#: batch usually suffices for graphs up to ~8k edges; the unused tail
#: of the final batch is discarded (the per-draw reference builder
#: shares this contract, so the candidate stream is identical on
#: either).
_BATCH = 8192

#: Bail-out multiplier: if candidate-set construction consumes more than
#: this many draws per needed pair, the graph is too dense/small for the
#: requested ``c`` and we raise instead of spinning.
_MAX_DRAW_FACTOR = 200

# (The packed (code, position) sort keys of _build_candidate_codes
# reserve position bits per call, since _candidate_batch_size scales
# the batch; the np.unique fallback guards vertex counts large enough
# for the shifted codes to overflow int64.)

# Candidate-churn accounting (repro.obs).  The registry receives every
# Algorithm-2 call's totals for manifests and ``repro trace``.
# search.py does not read it back: it sums ObfuscationResult counters
# from each probe's GenerationOutcome, because registry deltas would
# absorb concurrent searches' work.
_GEN_PAIRS_DRAWN = _OBS.counter("generate.pairs_drawn")
_GEN_ATTEMPTS = _OBS.counter("generate.attempts_made")
_GEN_ROWS_FOLDED = _OBS.counter("generate.rows_folded")
_GEN_ROWS_RECOMPUTED = _OBS.counter("generate.rows_recomputed")
_GEN_STALLS = _OBS.counter("generate.candidate_stalls")
_GEN_CALLS = _OBS.counter("generate.calls")
_GEN_WINNERS = _OBS.counter("generate.winners")
_GEN_REDRAWS = _OBS.histogram("generate.redraws_per_attempt")


def _record_outcome(best: GenerationOutcome) -> GenerationOutcome:
    """Feed one Algorithm-2 call's outcome counters into the registry."""
    _GEN_CALLS.add(1)
    _GEN_PAIRS_DRAWN.add(best.pairs_drawn)
    _GEN_ATTEMPTS.add(best.attempts_made)
    _GEN_ROWS_FOLDED.add(best.rows_folded)
    _GEN_ROWS_RECOMPUTED.add(best.rows_recomputed)
    if best.uncertain is not None:
        _GEN_WINNERS.add(1)
    return best


class WeightedVertexSampler:
    """Bit-exact, table-accelerated replica of weighted ``rng.choice``.

    ``Generator.choice(n, size, p=probs, replace=True)`` draws ``size``
    uniforms and inverts the normalised CDF with
    ``searchsorted(side="right")`` — a binary search per draw, which
    dominates candidate-set construction.  This sampler precomputes the
    same CDF once per Q distribution plus a power-of-two lookup table
    over ``[0, 1)``: because ``u·T`` and ``t/T`` are exact binary
    scalings, ``lut[t] = #{i: cdf_i ≤ t/T}`` *equals* the searchsorted
    result at every cell boundary, so a draw starts from one gather and
    finishes with monotone refinement jumps, one per distinct CDF value
    it passes inside its cell.  That count depends on how densely the
    distribution packs its cell: about one value per cell at a few
    thousand vertices, but Q ∝ uniqueness at n ≈ 45k puts up to ~67
    distinct values in one cell, so a batch can take ~60 refinement
    passes.  Each pass re-tests only the draws still unresolved, so a
    pass costs what is left, not the whole batch.  Outputs and RNG
    state are bit-identical to ``rng.choice`` — historical streams are
    preserved, which the sampler equivalence tests pin.
    """

    _TABLE_BITS = 14

    def __init__(self, probs: np.ndarray):
        probs = np.asarray(probs, dtype=np.float64)
        cdf = np.cumsum(probs)
        cdf /= cdf[-1]  # exactly numpy's normalisation (choice does the same)
        self._cdf = cdf
        T = 1 << self._TABLE_BITS
        self._T = T
        cells = np.minimum(np.ceil(cdf * T).astype(np.int64), T)
        self._lut = np.cumsum(np.bincount(cells, minlength=T + 1))
        # Jump table over ties: runs of equal CDF values (zero-probability
        # vertices) are skipped whole, keeping refinement O(distinct values).
        last = np.empty(len(cdf), dtype=bool)
        last[:-1] = cdf[1:] > cdf[:-1]
        last[-1] = True
        end_idx = np.where(last, np.arange(len(cdf)), len(cdf))
        first_change = np.minimum.accumulate(end_idx[::-1])[::-1]
        self._next_distinct = first_change + 1

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` vertex indices; consumes ``rng.random(size)``."""
        u = rng.random(size)
        cdf = self._cdf
        idx = self._lut[(u * self._T).astype(np.int64)]
        # A resolved draw (cdf[idx] > u) never moves again, so each pass
        # jumps and re-tests only the draws that are still pending.
        pending = np.flatnonzero(cdf[idx] <= u)
        while pending.size:
            jumped = self._next_distinct[idx[pending]]
            idx[pending] = jumped
            pending = pending[cdf[jumped] <= u[pending]]
        return idx


class CandidateStallError(RuntimeError):
    """Candidate-set construction could not reach ``|E_C| = c·|E|``.

    A stochastic stall: every eligible non-edge was absorbed before the
    target size was hit.  Algorithm 2 counts it as a failed attempt.
    ``pairs_drawn`` records the Q-sample draws consumed before giving
    up, so throughput accounting stays honest across failures.
    """

    def __init__(self, message: str, pairs_drawn: int):
        super().__init__(message)
        self.pairs_drawn = pairs_drawn


def select_excluded_vertices(
    uniqueness: np.ndarray, eps: float, n: int
) -> np.ndarray:
    """The set ``H``: the ``⌈ε/2·n⌉`` vertices with highest uniqueness.

    Ties are broken by vertex id for determinism.  These vertices are the
    "hopeless celebrities" of §3 — no uncertainty is spent on them, and
    they consume (half of) the ε tolerance budget.
    """
    size = int(np.ceil(eps / 2.0 * n))
    if size == 0:
        return np.empty(0, dtype=np.int64)
    order = np.lexsort((np.arange(len(uniqueness)), -uniqueness))
    return np.sort(order[:size])


def _stall_message(target_size: int, draws_used: int) -> str:
    return (
        f"candidate-set construction did not reach |E_C|={target_size} "
        f"after {draws_used} draws; the graph is likely too dense for c"
    )


def _sorted_contains(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Membership of ``needles`` in a sorted ``haystack``, per element.

    One binary-search pass — unlike ``np.isin``, which argsorts the
    concatenation of both arrays on every call even under
    ``assume_unique``.
    """
    if not len(haystack):
        return np.zeros(len(needles), dtype=bool)
    pos = np.searchsorted(haystack, needles)
    pos_clip = np.minimum(pos, len(haystack) - 1)
    return (pos < len(haystack)) & (haystack[pos_clip] == needles)


def _merge_sorted_disjoint(
    a: np.ndarray, b: np.ndarray, *, return_positions: bool = False
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Union of two sorted arrays with no common elements.

    The rank of each ``b`` element in the merged order is its
    searchsorted position in ``a`` plus its own index — no re-sort of
    the concatenation (``np.union1d`` would sort all ``|a|+|b|``
    elements again every batch).  With ``return_positions`` the merged
    indices of the ``b`` elements are returned too.
    """
    if not len(a) or not len(b):
        out = b if not len(a) else a
        if return_positions:
            positions = (
                np.arange(len(b)) if not len(a) else np.empty(0, dtype=np.int64)
            )
            return out, positions
        return out
    out = np.empty(len(a) + len(b), dtype=a.dtype)
    b_dest = np.searchsorted(a, b) + np.arange(len(b))
    mask = np.ones(len(out), dtype=bool)
    mask[b_dest] = False
    out[mask] = a
    out[b_dest] = b
    if return_positions:
        return out, b_dest
    return out


def _candidate_batch_size(target_size: int, m: int) -> int:
    """Q-sampling batch size for one candidate build.

    A multiple of :data:`_BATCH` scaled to the net additions the build
    needs (plus 12.5% slack for self-pairs, repeats and removals, capped
    at 8×), so large graphs finish in one batch instead of paying the
    toggle bookkeeping per 8192-pair slice.  The per-draw reference
    builder takes its batch size from here too, so the streams stay
    aligned.
    """
    needed = max(target_size - m, 1)
    slack = needed + needed // 8
    return min(-(-slack // _BATCH), 8) * _BATCH


def _build_candidate_codes(
    n: int,
    edge_codes: np.ndarray,
    target_size: int,
    sampler: WeightedVertexSampler,
    rng: np.random.Generator,
    *,
    batch_size: int = _BATCH,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Lines 6–12 of Algorithm 2: grow E_C from E by Q-weighted toggles.

    Each sampler batch (bit-equal to the ``rng.choice`` batch the
    per-draw reference builder in ``tests/oracles/generate.py`` draws,
    so the stream stays aligned) is processed with array ops: pairs are
    encoded as scalar codes ``u·n + v``, self-pairs masked, repeated
    toggles collapsed to their first occurrence (an original edge is
    only ever *removed*, a non-edge only ever *added*, so every later
    occurrence of a code is a no-op), membership resolved against the
    sorted ``edge_codes`` by binary search, and the "stop when
    ``|E_C| = c·|E|``" cutoff located with a cumulative net-size scan.

    Returns
    -------
    (codes, is_edge, removed, draws_used):
        Sorted candidate pair codes, a parallel mask marking original
        edges, the sorted codes of edges toggled *out* of the candidate
        set, and the number of scalar draws consumed — bit-identical,
        draw-for-draw, to the per-draw reference at the same RNG state
        and batch size (pinned by the seed-equivalence tests).
    """
    m = len(edge_codes)
    max_draws = max(_MAX_DRAW_FACTOR * max(target_size, 1), 10_000)
    pos_bits = max((batch_size - 1).bit_length(), 1)
    pos_mask = (1 << pos_bits) - 1
    pack_safe = 1 << ((63 - pos_bits) // 2)
    draws_used = 0
    size = m
    toggled = np.empty(0, dtype=np.int64)  # sorted codes already toggled
    removed_parts: list[np.ndarray] = []
    added_parts: list[np.ndarray] = []
    while size != target_size:
        if draws_used >= max_draws:
            raise CandidateStallError(
                _stall_message(target_size, draws_used), draws_used // 2
            )
        batch = sampler.sample(rng, 2 * batch_size)
        draws_used += 2 * batch_size
        us, vs = batch[0::2], batch[1::2]
        valid = np.flatnonzero(us != vs)
        if not valid.size:
            continue  # every draw was a self-pair
        codes = np.minimum(us[valid], vs[valid]) * np.int64(n) + np.maximum(
            us[valid], vs[valid]
        )
        # First occurrence of each code in draw order, via one unstable
        # sort of packed (code, position) keys: ``valid`` holds indices
        # into the batch-long pair arrays, so positions are < batch_size
        # and fit in the low pos_bits bits.  Sorting the packed key
        # groups equal codes with their draw positions ascending — the
        # group head is the first occurrence.  ~2× faster than
        # np.unique's stable mergesort for the same result, which stays
        # as the fallback when n is large enough for the shifted codes
        # to overflow int64.
        if n <= pack_safe:
            packed = (codes << pos_bits) | valid
            packed.sort()
            head = np.empty(len(packed), dtype=bool)
            head[0] = True
            np.not_equal(
                packed[1:] >> pos_bits, packed[:-1] >> pos_bits, out=head[1:]
            )
            heads = packed[head]
            uniq, first_idx = heads >> pos_bits, heads & pos_mask
        else:
            uniq, first_idx = np.unique(codes, return_index=True)
            first_idx = valid[first_idx]
        if toggled.size:
            fresh = ~_sorted_contains(toggled, uniq)
            uniq, first_idx = uniq[fresh], first_idx[fresh]
        is_edge_sorted = _sorted_contains(edge_codes, uniq)
        order = np.argsort(first_idx)  # restore draw order
        eff_codes = uniq[order]
        is_edge = is_edge_sorted[order]
        running = size + np.cumsum(np.where(is_edge, -1, 1))
        hits = np.flatnonzero(running == target_size)
        if hits.size:
            stop = int(hits[0])
            eff_codes, is_edge = eff_codes[: stop + 1], is_edge[: stop + 1]
            size = target_size
        elif running.size:
            size = int(running[-1])
        removed_parts.append(eff_codes[is_edge])
        added_parts.append(eff_codes[~is_edge])
        if size != target_size:
            toggled = _merge_sorted_disjoint(toggled, np.sort(eff_codes))

    removed = np.concatenate(removed_parts) if removed_parts else np.empty(
        0, dtype=np.int64
    )
    if removed.size:
        removed.sort()
        kept = edge_codes[~_sorted_contains(removed, edge_codes)]
    else:
        kept = edge_codes
    if added_parts:
        added = np.concatenate(added_parts)
        added.sort()
    else:
        added = np.empty(0, dtype=np.int64)
    codes, added_dest = _merge_sorted_disjoint(kept, added, return_positions=True)
    is_edge = np.ones(len(codes), dtype=bool)
    is_edge[added_dest] = False
    return codes, is_edge, removed, draws_used


class SigmaSetup:
    """Per-σ derived state of Algorithm 2 (Lines 1–5), memo-friendly.

    Attributes
    ----------
    uniqueness:
        Per-vertex ``U_σ(P(v))`` after the weighting-mode override
        (all-ones under the ``"uniform"`` ablation).
    excluded:
        The set ``H`` (sorted vertex ids).
    q_probs:
        The sampling distribution ``Q`` over ``V \\ H``.
    available_additions:
        Number of non-edges with both endpoints outside ``H`` — the
        feasibility headroom for the ``|E_C| = c·|E|`` target.
    q_mean_uniqueness:
        ``μ_Q = Σ_v Q(v)·U_σ(P(v))`` — the expected uniqueness of a
        Q-sampled endpoint, the candidate-set-independent Eq. 7
        normaliser of the pair-keyed perturbation draws
        (:func:`repro.core.uniqueness.redistribute_sigma_invariant`).
    sampler:
        The table-accelerated Q sampler
        (:class:`WeightedVertexSampler`) the candidate builder draws
        batches from.
    """

    __slots__ = (
        "uniqueness",
        "excluded",
        "q_probs",
        "available_additions",
        "q_mean_uniqueness",
        "sampler",
    )

    def __init__(
        self,
        uniqueness,
        excluded,
        q_probs,
        available_additions,
        q_mean_uniqueness,
    ):
        self.uniqueness = uniqueness
        self.excluded = excluded
        self.q_probs = q_probs
        self.available_additions = available_additions
        self.q_mean_uniqueness = q_mean_uniqueness
        self.sampler = WeightedVertexSampler(q_probs)


class SearchContext:
    """Hoisted state shared across the probes of the Algorithm-1 search.

    One Algorithm-1 run calls Algorithm 2 at a dozen or more σ values;
    everything that does not depend on σ — degrees, the degree
    histogram behind uniqueness, the edge codes, the edge-incidence
    structure and the checker width — is computed once here (sound
    because :class:`Graph` is immutable, so the identity check in
    :meth:`check` is enough).  Per-σ
    setup (uniqueness, ``H``, Q-weights, the Q sampler's tables and
    the feasibility count) is memoised by σ, so repeated probes at the
    same σ (the doubling ladder replayed by ``obfuscate_with_fallback``
    when it escalates ``c``, or external sweeps) cost a dict lookup.

    A context is bound to one graph and one ``(eps, weighting, method)``
    combination; ``c``, ``k``, ``q`` and the σ-search knobs may vary
    freely across calls that share it.
    """

    def __init__(
        self,
        graph: Graph,
        *,
        eps: float,
        weighting: str = "uniqueness",
        method: str = "auto",
    ):
        self.graph = graph
        self.eps = eps
        self.weighting = weighting
        self.method = method
        self.n = graph.num_vertices
        self.m = graph.num_edges
        self.degrees = graph.degrees()
        self.width = int(self.degrees.max(initial=0)) + 2
        self.edge_codes = graph.edge_codes()
        self._edge_us = self.edge_codes // max(self.n, 1)
        self._edge_vs = self.edge_codes % max(self.n, 1)
        self._degree_hist = degree_histogram(self.degrees)
        # Distinct original degrees + inverse map, shared by every
        # Definition-2 check (one np.unique instead of one per attempt).
        self.distinct_degrees, self.degree_inverse = np.unique(
            self.degrees, return_inverse=True
        )
        self._setups: dict[float, SigmaSetup] = {}
        self._edge_incidence: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        # Per-vertex multiplicity of each distinct degree — turns the
        # per-attempt "count under-obfuscated vertices" gather into a
        # |distinct|-long weighted sum.
        self.degree_multiplicity = np.bincount(self.degree_inverse)

    @classmethod
    def for_params(cls, graph: Graph, params: ObfuscationParams) -> "SearchContext":
        """Build a context matching an ObfuscationParams bundle."""
        return cls(
            graph,
            eps=params.eps,
            weighting=params.weighting,
            method=params.method,
        )

    def check(self, graph: Graph, params: ObfuscationParams) -> None:
        """Raise if this context cannot serve ``(graph, params)``."""
        if self.graph is not graph:
            raise ValueError("search context was built for a different graph")
        if (self.eps, self.weighting, self.method) != (
            params.eps,
            params.weighting,
            params.method,
        ):
            raise ValueError(
                "search context (eps/weighting/method) does not match params"
            )

    def edge_incidence(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Canonical edge-incidence CSR *structure*, σ-independent.

        Returns ``(counts, indptr, entry_pair)`` where ``entry_pair``
        maps each CSR slot to the edge index whose probability occupies
        it — the layout of
        :func:`repro.core.posterior_batch._incidence_csr` with the data
        replaced by provenance.  The array probe path fills the
        per-probe data with a single gather ``p_edge[entry_pair]``
        instead of re-running the scatter every probe.
        """
        if self._edge_incidence is None:
            m = len(self.edge_codes)
            counts, indptr, slots = _incidence_csr(
                self.n,
                self._edge_us,
                self._edge_vs,
                np.arange(m, dtype=np.float64),
            )
            self._edge_incidence = (counts, indptr, slots.astype(np.int64))
        return self._edge_incidence

    def sigma_setup(self, sigma: float) -> SigmaSetup:
        """Memoised per-σ setup (uniqueness, H, Q, feasibility)."""
        key = float(sigma)
        setup = self._setups.get(key)
        if setup is None:
            setup = self._make_setup(sigma, None)
            self._setups[key] = setup
        return setup

    def setup_for_excluded(self, sigma: float, excluded: np.ndarray) -> SigmaSetup:
        """Per-σ setup with an externally-chosen ``H`` (never memoised)."""
        return self._make_setup(sigma, np.asarray(excluded, dtype=np.int64))

    def _make_setup(self, sigma: float, excluded: np.ndarray | None) -> SigmaSetup:
        commonness = degree_commonness_from_histogram(self._degree_hist, sigma)
        uniqueness = 1.0 / commonness[self.degrees]
        if excluded is None:
            excluded = select_excluded_vertices(uniqueness, self.eps, self.n)
        if self.weighting == "uniform":
            # Ablation mode: ignore uniqueness for both pair sampling and
            # the σ(e) redistribution (flat budget).
            uniqueness = np.ones(self.n, dtype=np.float64)
        # Q(v) ∝ U_σ(P(v)) on V \ H (Line 3, restricted per Lines 8-9).
        q_weights = uniqueness.copy()
        q_weights[excluded] = 0.0
        total_weight = q_weights.sum()
        if total_weight <= 0:
            raise ValueError(
                "every vertex was excluded; cannot sample candidate pairs"
            )
        q_probs = q_weights / total_weight
        # μ_Q — the pair-keyed draws' Eq. 7 normaliser (see SigmaSetup).
        # A BLAS dot splits its sum over threads, so its bits would follow
        # the thread count; NumPy's pairwise sum does not.
        q_mean_uniqueness = float((q_probs * uniqueness).sum())
        # Feasibility: E_C can grow at most to |E| plus the non-edges
        # available among V \ H.  The paper's |E| ≪ |V2|/2 assumption
        # makes this always hold on real social graphs; tiny dense
        # graphs can violate it.  One mask pass over the edge codes
        # replaces the former per-edge Python set probes.
        eligible_mask = q_probs > 0
        n_eligible = int(eligible_mask.sum())
        edges_within = int(
            (eligible_mask[self._edge_us] & eligible_mask[self._edge_vs]).sum()
        )
        available = n_eligible * (n_eligible - 1) // 2 - edges_within
        return SigmaSetup(
            uniqueness, excluded, q_probs, available, q_mean_uniqueness
        )


def _pair_stream_perturbations(
    pair_key: int,
    codes: np.ndarray,
    us: np.ndarray,
    vs: np.ndarray,
    sigma: float,
    setup: SigmaSetup,
    q: float,
) -> np.ndarray:
    """``r_e`` for a batch of pairs — a pure function of the pair.

    Algorithm 2's perturbation sampler: per-pair σ(e) via the invariant
    Eq. 7 normaliser, one inverse-CDF pass over the pair-code-keyed
    uniforms, and white noise resolved from its own substreams.  The
    same helper draws the original edges and every attempt's additions
    (and the per-attempt reference in ``tests/oracles/generate.py``
    calls it too), so a pair's perturbation never depends on which call
    evaluates it.
    """
    pair_uniq = pair_uniqueness(setup.uniqueness, us, vs)
    pair_sigmas = redistribute_sigma_invariant(
        sigma, pair_uniq, setup.q_mean_uniqueness
    )
    r = perturbations_from_uniforms(
        pair_stream_uniforms(pair_key, codes, PAIR_SUBSTREAM_PERTURBATION),
        pair_sigmas,
    )
    white = pair_stream_uniforms(pair_key, codes, PAIR_SUBSTREAM_WHITE_MASK) < q
    if white.any():
        r[white] = pair_stream_uniforms(
            pair_key, codes[white], PAIR_SUBSTREAM_WHITE_VALUE
        )
    return r


def _column_entropies_split(
    Xf: np.ndarray,
    t_eff: int,
    n: int,
    extra_rows: np.ndarray,
    extra: np.ndarray,
    omegas: np.ndarray,
) -> np.ndarray:
    """``H(Y_ω)`` per attempt from the split posterior representation.

    The batched probe path stores exact-bucket rows in a width-capped
    ``(t·n, x_width)`` stack and CLT rows in their own full-width
    matrix; this combines both into per-attempt column entropies with
    the same ``log2 T − (Σ c·log2 c)/T`` arithmetic as
    :meth:`repro.core.obfuscation_check.DegreePosterior.column_entropies`
    (0·log 0 convention, zero-mass columns → 0), through the shared
    :func:`repro.core.obfuscation_check.column_mass_stack` reduction.
    Exact rows cannot reach degrees at or beyond the cap, so columns
    there draw from the CLT rows alone.

    ``extra_rows`` ascend (stacked row ids ``attempt·n + v``), so each
    attempt's CLT rows form one block.  Each block is added onto its
    attempt's exact-side mass one row at a time, in row order, so the
    rounding is that of a scatter-add over the rows (``np.add.at``,
    which the tests pin it against bit for bit).
    """
    totals, sums = column_mass_stack(
        Xf.reshape(t_eff, n, Xf.shape[1]), omegas
    )
    if len(extra_rows):
        # Row-major, the layout the row-order merge below reads.
        ecols = np.take(extra, omegas, axis=1)
        eplogp = np.zeros_like(ecols)
        np.log2(ecols, out=eplogp, where=ecols > 0.0)
        eplogp *= ecols
        bounds = np.searchsorted(extra_rows, np.arange(t_eff + 1) * n)
        for a, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            for mass, rows in ((totals, ecols), (sums, eplogp)):
                # cumsum down axis 0 is a sequential running sum.
                run = np.vstack((mass[a], rows[lo:hi]))
                mass[a] = np.cumsum(run, axis=0)[-1]
    return entropies_from_column_mass(totals, sums)


def _generate_pair_keyed_array(
    sigma: float,
    params: ObfuscationParams,
    rng: np.random.Generator,
    context: SearchContext,
    setup: SigmaSetup,
    target_size: int,
) -> GenerationOutcome:
    """Algorithm 2's attempts, built first and checked in one stacked pass.

    Pair-keyed perturbations turn the probe's randomness inside out: the
    master RNG only feeds the candidate builds (plus the one key draw),
    and every pair probability is a pure function of
    ``(key, pair code, σ)``.  Two structural consequences carry the
    speedup:

    * **per-probe edge state** — original-edge probabilities are shared
      by all attempts, so their canonical incidence data, CLT moments
      and, for exact-bucket vertices, the Lemma-1 DP over the edge
      entries (the *base* rows) are computed once per probe;
    * **attempt batching** — with no stream interleaving between
      evaluation and sampling, all candidate sets are built first
      (stream-identical to the per-attempt reference in
      ``tests/oracles/generate.py``) and then evaluated in
      one stacked pass: each attempt's *additions* are folded into the
      base rows by :func:`repro.core.posterior_batch.fold_in_staircase`
      over every attempt simultaneously, CLT rows take one batched
      moments pass, and the Definition-2 entropies evaluate on the
      ``(t, n, width)`` stack at once.

    Only two row classes pay a recompute: CLT rows (O(width) each, by
    design) and exact rows that lost an edge to candidate toggling —
    removed edges carry ``p = 1 - r_e``, typically above 1/2, where
    folding a Bernoulli back *out* of a DP row amplifies rounding by
    ``(p/(1-p))^ω``, so their base is rebuilt from the kept entries
    instead.  Everything else is served from the cached base + fold-in
    — the ``rows_folded`` counter the benchmarks assert on.

    Fold rows fold edges first, then additions (the canonical CSR
    interleaves them), so values may drift ≤1e-12 from the reference's
    full recompute; candidate sets, probabilities and draws stay
    bit-identical.
    """
    n, m, width = context.n, context.m, context.width
    edge_codes = context.edge_codes
    pair_key = int(rng.integers(0, 2**63 - 1))

    # Phase 1 — candidate builds, consuming the master stream exactly
    # like the reference's per-attempt builds (nothing else draws from
    # the master RNG between them).
    built: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
    pairs_drawn = 0
    batch_size = _candidate_batch_size(target_size, m)
    for attempt in range(params.attempts):
        try:
            codes, is_edge, removed_codes, draws_used = _build_candidate_codes(
                n, edge_codes, target_size, setup.sampler, rng,
                batch_size=batch_size,
            )
        except CandidateStallError as stall:
            pairs_drawn += stall.pairs_drawn
            _GEN_STALLS.add(1)
            _GEN_REDRAWS.observe(stall.pairs_drawn)
            continue
        pairs_drawn += draws_used // 2
        _GEN_REDRAWS.observe(draws_used // 2)
        built.append((attempt, codes, is_edge, removed_codes))

    best = GenerationOutcome(
        eps_achieved=float("inf"), uncertain=None, sigma=sigma
    )
    best.pairs_drawn = pairs_drawn
    if not built:
        best.attempts_made = params.attempts
        return _record_outcome(best)
    t_eff = len(built)

    # Phase 2 — per-probe edge state: probabilities, canonical CSR
    # data, CLT moments, and the exact-bucket base DP rows.
    r_edge = _pair_stream_perturbations(
        pair_key,
        edge_codes,
        context._edge_us,
        context._edge_vs,
        sigma,
        setup,
        params.q,
    )
    p_edge = 1.0 - r_edge
    e_counts, e_indptr, entry_pair = context.edge_incidence()
    e_data = p_edge[entry_pair]
    # Exact-bucket rows can never exceed AUTO_EXACT_LIMIT incident
    # candidates, so the whole exact-side pipeline — base, rebuilds,
    # fold, stack — runs at that support cap instead of the full
    # retained width (hub degrees can be far larger; their CLT rows
    # live in a separate full-width matrix).
    if params.method == "normal":
        exact_limit = -1
        x_width = 1
        base = None
    elif params.method == "exact":
        exact_limit = np.iinfo(np.int64).max
        x_width = width
        base = degree_posterior_matrix(
            e_indptr, e_data, method="exact", width=x_width
        )
    else:
        exact_limit = AUTO_EXACT_LIMIT
        x_width = min(width, AUTO_EXACT_LIMIT + 1)
        base = degree_posterior_matrix(
            e_indptr, e_data, method="auto", width=x_width
        )
    mu_edge, pq_edge = _segment_moments(e_data, e_indptr[:-1], e_indptr[1:])

    # Phase 3 — stack the attempts: addition probabilities in one hashed
    # pass, one incidence CSR over attempt-offset vertex ids, removed
    # edges located per attempt.
    add_parts = [codes[~is_edge] for _, codes, is_edge, _r in built]
    add_sizes = np.array([len(p) for p in add_parts], dtype=np.int64)
    add_codes = (
        np.concatenate(add_parts) if add_parts else np.empty(0, dtype=np.int64)
    )
    att_of_add = np.repeat(np.arange(t_eff, dtype=np.int64), add_sizes)
    add_us, add_vs = add_codes // n, add_codes % n
    r_add = _pair_stream_perturbations(
        pair_key, add_codes, add_us, add_vs, sigma, setup, params.q
    )
    offset = att_of_add * np.int64(n)
    a_counts, a_indptr, a_data = _incidence_csr(
        t_eff * n, offset + add_us, offset + add_vs, r_add
    )

    # Removed edges per attempt (the builder already knows them): their
    # stacked endpoint rows lose an incident entry and its moments.
    rem_sizes = np.array([len(r) for _, _, _, r in built], dtype=np.int64)
    rem_codes_all = (
        np.concatenate([r for _, _, _, r in built])
        if built
        else np.empty(0, dtype=np.int64)
    )
    rem_idx = np.searchsorted(edge_codes, rem_codes_all)
    rem_att = np.repeat(np.arange(t_eff, dtype=np.int64), rem_sizes)
    rem_off = rem_att * np.int64(n)
    removed_rows = np.concatenate(
        [rem_off + context._edge_us[rem_idx], rem_off + context._edge_vs[rem_idx]]
    )
    counts_stack = np.tile(e_counts, t_eff) + a_counts
    if removed_rows.size:
        p_rem = np.concatenate([p_edge[rem_idx], p_edge[rem_idx]])
        counts_stack -= np.bincount(removed_rows, minlength=t_eff * n)
        mu_rem = np.bincount(
            removed_rows, weights=p_rem, minlength=t_eff * n
        )
        pq_rem = np.bincount(
            removed_rows, weights=p_rem * (1.0 - p_rem), minlength=t_eff * n
        )
    else:
        mu_rem = pq_rem = np.zeros(t_eff * n, dtype=np.float64)

    exact_stack = counts_stack <= exact_limit
    has_removed = np.zeros(t_eff * n, dtype=bool)
    has_removed[removed_rows] = True

    # Phase 4 — posterior stack: every attempt's X initialised from the
    # base rows, removed-edge rows rebuilt, additions folded in, CLT
    # rows recomputed from moments into their own full-width matrix.
    X = np.empty((t_eff, n, x_width), dtype=np.float64)
    Xf = X.reshape(t_eff * n, x_width)
    if base is not None:
        X[:] = base[None, :, :]
    else:
        Xf[...] = 0.0

    rebuild = np.flatnonzero(exact_stack & has_removed)
    if rebuild.size:
        # Rebuild the base of rows that lost an edge to candidate
        # toggling: gather their edge-CSR slots and drop the slots whose
        # edge was toggled out in that row's attempt (folding p = 1 - r_e
        # back out of the base row would be ill-conditioned).
        verts = rebuild % n
        atts = rebuild // n
        live = e_counts[verts]
        slots = multi_range(e_indptr[verts], live)
        # Sparse (attempt, edge) membership on combined keys — the
        # removal set is tiny, so no dense (t, m) matrix is needed.
        rem_keys = np.sort(rem_att * np.int64(m) + rem_idx)
        slot_keys = np.repeat(atts, live) * np.int64(m) + entry_pair[slots]
        keep = ~_sorted_contains(rem_keys, slot_keys)
        row_of_slot = np.repeat(np.arange(len(rebuild)), live)
        sub_counts = np.bincount(
            row_of_slot[keep], minlength=len(rebuild)
        ).astype(np.int64)
        sub_indptr = np.zeros(len(rebuild) + 1, dtype=np.int64)
        np.cumsum(sub_counts, out=sub_indptr[1:])
        Xf[rebuild] = degree_posterior_matrix(
            sub_indptr,
            e_data[slots][keep],
            method="exact",
            width=x_width,
        )

    # Fold every attempt's additions into its exact rows in one stacked
    # pass, in place over the whole posterior stack (rows to be
    # recomputed are masked out; rows without additions pass through).
    fold_in_staircase(
        Xf,
        a_indptr,
        a_data,
        support=counts_stack - a_counts + 1,
        active=exact_stack,
        overwrite=True,
    )

    clt_rows = np.flatnonzero(~exact_stack)
    if clt_rows.size:
        verts = clt_rows % n
        add_mu, add_pq = _segment_moments(
            a_data, a_indptr[clt_rows], a_indptr[clt_rows + 1]
        )
        mu = mu_edge[verts] - mu_rem[clt_rows] + add_mu
        pq = pq_edge[verts] - pq_rem[clt_rows] + add_pq
        X_clt = normal_approx_pmf_batch(
            mu, pq, counts_stack[clt_rows], support=width - 1
        )
        # Their stack slots still hold the (meaningless) base tile —
        # blank them so the exact-side column sums skip CLT vertices.
        Xf[clt_rows] = 0.0
    else:
        X_clt = np.empty((0, width), dtype=np.float64)

    best.rows_folded = int(exact_stack.sum()) - len(rebuild)
    best.rows_recomputed = len(rebuild) + len(clt_rows)

    # Phase 5 — Definition 2 on the whole stack: entropies per distinct
    # original degree, under-obfuscated counts via degree multiplicity.
    k_threshold = math.log2(params.k) - 1e-12
    entropies = _column_entropies_split(
        Xf, t_eff, n, clt_rows, X_clt, context.distinct_degrees
    )
    under = entropies < k_threshold
    eps_attempts = (under * context.degree_multiplicity[None, :]).sum(
        axis=1
    ) / max(n, 1)

    qualifying = np.flatnonzero(eps_attempts <= params.eps)
    if not qualifying.size:
        best.attempts_made = params.attempts
        return _record_outcome(best)
    winner = int(qualifying[np.argmin(eps_attempts[qualifying])])
    attempt_index, codes, is_edge, _ = built[winner]
    probs = np.empty(len(codes), dtype=np.float64)
    probs[is_edge] = p_edge[
        np.searchsorted(edge_codes, codes[is_edge])
    ]
    hi = int(np.cumsum(add_sizes)[winner])
    probs[~is_edge] = r_add[hi - int(add_sizes[winner]) : hi]
    best.eps_achieved = float(eps_attempts[winner])
    best.uncertain = UncertainGraph._from_trusted_arrays(
        n, codes // n, codes % n, probs
    )
    best.attempts_made = attempt_index + 1
    return _record_outcome(best)


def generate_obfuscation(
    graph: Graph,
    sigma: float,
    params: ObfuscationParams,
    *,
    seed=None,
    excluded: np.ndarray | None = None,
    context: SearchContext | None = None,
) -> GenerationOutcome:
    """Run Algorithm 2 at spread σ and return the best attempt.

    Parameters
    ----------
    graph:
        The original graph ``G``.
    sigma:
        Uncertainty budget (standard deviation of the base perturbation
        distribution; also the kernel width θ for uniqueness).
    params:
        Obfuscation parameters (k, ε, c, q, attempts, checker method,
        weighting).
    seed:
        RNG seed/stream.
    excluded:
        Optional externally-chosen ``H`` (the paper allows H, or part of
        it, to be an input); defaults to the top-uniqueness selection.
    context:
        Optional :class:`SearchContext` to reuse across probes; the
        Algorithm-1 search passes one so degrees, edge codes, the
        edge-incidence structure and per-σ uniqueness/Q-weights are
        shared.  Must have been built for this graph and ``params``'
        eps/weighting/method.

    Returns
    -------
    GenerationOutcome
        ``eps_achieved = inf`` and ``uncertain = None`` if all ``t``
        attempts missed the tolerance.
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
            f"candidate-set target c|E|={target_size} exceeds the {m} edges plus "
            f"{setup.available_additions} addable non-edges outside H; reduce c"
        )

    return _generate_pair_keyed_array(
        sigma, params, rng, context, setup, target_size
    )
