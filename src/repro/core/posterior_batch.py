"""Batched Poisson-binomial posterior engine (§4, vectorised).

The Definition-2 verification loop inside Algorithm 2 needs the full
``X_v(ω)`` matrix — one degree PMF per vertex — once per attempt, per σ
probe of the binary search.  Computing it as ``n`` scalar
:func:`repro.core.degree_pmf` calls is the dominant cost of the whole
obfuscation pipeline, so this module evaluates the matrix in three
vectorised passes over a CSR export of the incident probabilities
(:meth:`repro.uncertain.UncertainGraph.incident_probability_csr`):

* **Exact buckets** — vertices destined for the Lemma-1 DP are grouped
  by incident-candidate count ℓ; each group forms a dense ``(bucket, ℓ)``
  probability matrix and the DP fold runs as 2-D column operations, so
  one NumPy pass advances *every* vertex in the bucket by one Bernoulli.
  The fold is truncated at the requested ``width``: DP entry ``j``
  depends only on entries ``≤ j``, so the retained prefix is bit-for-bit
  identical to folding the full support and cutting afterwards.  Rows
  wider than the measured
  :data:`repro.core.degree_distribution.TREE_CROSSOVER_WIDTH` dispatch
  to the O(s log² s) tree-product/FFT kernel
  (:func:`poisson_binomial_pmf_tree`) under ``kernel="auto"``; the
  staircase remains the pinned oracle.
* **CLT batch** — large-ℓ vertices take the §4 normal approximation with
  a single ``(rows, width+1)`` array-``erf`` evaluation instead of a
  per-bin ``math.erf`` loop per vertex.
* **Empty vertices** — a direct ``X[v, 0] = 1`` write.

The scalar kernels (:func:`repro.core.degree_pmf` et al.) are the
ground truth: the equivalence tests pin the batched kernels to them,
and the whole matrix to the per-vertex loop of
``tests/oracles/posterior.py``, at 1e-12.
"""

from __future__ import annotations

import numpy as np

from repro.core.degree_distribution import (
    AUTO_EXACT_LIMIT,
    TREE_CROSSOVER_WIDTH,
    _SQRT2,
    erf_array,
)
from repro.graphs.traversal import multi_range
from repro.obs.metrics import REGISTRY as _OBS

__all__ = [
    "poisson_binomial_pmf_batch",
    "poisson_binomial_pmf_tree",
    "normal_approx_pmf_batch",
    "degree_posterior_matrix",
    "fold_in_staircase",
    "TREE_FFT_MIN_DEGREE",
]

#: Element budget (≈128 MB of float64) above which the staircase DP
#: streams addend columns from the CSR instead of building the dense
#: padded (rows, max-ℓ) matrix — forced-exact mode on skewed graphs
#: must not pay O(rows·max-ℓ) memory for a per-step gather it can do
#: in place.
_DENSE_ADDEND_BUDGET = 1 << 24

# Kernel-mix accounting (repro.obs): one attribute add per *call*, fed
# from row counts the dispatch already computed — observational only,
# never touching values or RNG streams.  The dispatch counters record
# only kernel="auto" decisions (the TREE_CROSSOVER_WIDTH split); the
# rows counters record where each row was actually evaluated.
_ROWS_STAIRCASE = _OBS.counter("posterior.rows.staircase")
_ROWS_TREE = _OBS.counter("posterior.rows.tree")
_ROWS_CLT = _OBS.counter("posterior.rows.clt")
_DISPATCH_TREE = _OBS.counter("posterior.dispatch.auto_tree")
_DISPATCH_STAIRCASE = _OBS.counter("posterior.dispatch.auto_staircase")
_FOLD_ROWS = _OBS.counter("posterior.fold.rows")
_FOLD_ROWS_TREE = _OBS.counter("posterior.fold.rows_tree")
_FOLD_ROWS_STAIRCASE = _OBS.counter("posterior.fold.rows_staircase")


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
        ragged inputs — though the engine buckets by ℓ precisely to
        avoid wasting work on pad columns.
    support:
        Output has ``support + 1`` columns (default ℓ).  When
        ``support < ℓ`` the fold itself is truncated — cost drops from
        ``O(ℓ²)`` to ``O(ℓ·support)`` per row — and the retained entries
        still match the untruncated DP exactly (tail mass is dropped,
        never lumped, mirroring :func:`repro.core.degree_pmf`).

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


#: Per-side polynomial degree at which a tree level's pairwise products
#: switch from direct shift-multiply-add convolution to real-FFT
#: convolution.  Below it the O(d²) direct form is a handful of fat
#: array ops; above it the O(d log d) transform wins despite the
#: power-of-two padding.
TREE_FFT_MIN_DEGREE = 32


def poisson_binomial_pmf_tree(
    prob_matrix: np.ndarray, *, support: int | None = None
) -> np.ndarray:
    """Poisson-binomial PMFs via hierarchical pairwise convolution.

    Each Bernoulli(p) is the degree-1 polynomial ``(1-p) + p·x``; the
    PMF of the sum is the product of all ℓ polynomials.  Instead of the
    staircase DP's one-at-a-time fold (O(ℓ·support) per row), the
    factors are multiplied *pairwise, leaf to root*: level ``k`` holds
    ``ℓ/2^k`` polynomials of degree ``2^k``, each pairwise product is a
    batched convolution — direct shift-multiply-add below
    :data:`TREE_FFT_MIN_DEGREE`, ``np.fft.rfft``/``irfft`` above — for
    a total of O(s log² s) per row on a support of width ``s``.

    Intermediate supports are truncated to the requested ``support``
    at every level: convolution coefficient ``j`` depends only on
    input coefficients ``≤ j``, so the retained prefix matches the
    untruncated product exactly (same dropped-tail convention as
    :func:`poisson_binomial_pmf_batch`).  The FFT path's round-trip
    rounding can leave coefficients a few ulp below zero; they are
    clipped to 0, and the result is pinned ≤1e-10 against the
    staircase oracle by the kernel tests.

    The leaf count is padded to a power of two with identity
    polynomials (``p = 0`` addends, a numerical no-op under direct
    convolution), so a row's level schedule — and hence its exact
    floating-point result — depends only on its own probabilities,
    ``ceil_pow2(ℓ)`` and ``support``.  :func:`degree_posterior_matrix`
    groups rows by that padded width precisely so ``kernel="auto"``
    output bit-matches a pure ``kernel="tree"`` pass.

    Parameters
    ----------
    prob_matrix:
        ``(rows, ℓ)`` matrix of Bernoulli success probabilities
        (zero-padding ragged rows is exact, as for the staircase).
    support:
        Output has ``support + 1`` columns (default ℓ); truncated tail
        mass is dropped, never lumped.

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
    if rows == 0:
        return out
    if ell == 0:
        out[:, 0] = 1.0
        return out
    if width == 0:
        # only the constant term survives: ∏(1-p)
        out[:, 0] = np.prod(1.0 - prob_matrix, axis=1)
        return out
    padded = 1 << (ell - 1).bit_length()
    polys = np.zeros((rows, padded, 2), dtype=np.float64)
    polys[:, :, 0] = 1.0
    polys[:, :ell, 0] = 1.0 - prob_matrix
    polys[:, :ell, 1] = prob_matrix
    while polys.shape[1] > 1:
        a = polys[:, 0::2]
        b = polys[:, 1::2]
        d = polys.shape[2] - 1
        out_deg = min(2 * d, width)
        if d < TREE_FFT_MIN_DEGREE:
            prod = np.zeros((rows, a.shape[1], out_deg + 1), dtype=np.float64)
            for t in range(min(d, out_deg) + 1):
                hi = min(d, out_deg - t)
                prod[:, :, t : t + hi + 1] += (
                    a[:, :, t : t + 1] * b[:, :, : hi + 1]
                )
        else:
            # nfft ≥ 2d+1 so the circular convolution never wraps into
            # the retained prefix, even when out_deg truncates.
            nfft = 1 << (2 * d).bit_length()
            fa = np.fft.rfft(a, nfft, axis=2)
            fa *= np.fft.rfft(b, nfft, axis=2)
            prod = np.fft.irfft(fa, nfft, axis=2)[:, :, : out_deg + 1]
            np.clip(prod, 0.0, None, out=prod)
        polys = prod
    # Degrees above ell are impossible; clip the copy there so FFT
    # round-off in the identity-padded tail never leaks past the true
    # support (the staircase writes exact zeros in those columns).
    keep = min(polys.shape[2], ell + 1)
    out[:, :keep] = polys[:, 0, :keep]
    return out


def _padded_leaf_widths(counts: np.ndarray) -> np.ndarray:
    """``ceil_pow2(count)`` per row — the tree kernel's leaf padding.

    ``frexp`` exponents are exact for integers below 2⁵³, so this is a
    branch-free vectorised ``1 << (count - 1).bit_length()`` (with
    ``count = 1 → 1``).
    """
    _, exp = np.frexp((np.asarray(counts, dtype=np.int64) - 1).astype(np.float64))
    return np.int64(1) << exp.astype(np.int64)


def _tree_fill(
    X: np.ndarray,
    vertices: np.ndarray,
    counts: np.ndarray,
    indptr: np.ndarray,
    data: np.ndarray,
    width: int,
) -> None:
    """Fill posterior rows via the tree kernel, grouped by padded width.

    Grouping rows by their padded leaf count keeps every row's level
    schedule a function of its own addend count alone, so a row lands
    on identical IEEE operations whether it arrived via
    ``kernel="tree"`` (all exact rows) or ``kernel="auto"`` (wide rows
    only) — the dispatch property the kernel tests pin bit-for-bit.
    """
    pow2 = _padded_leaf_widths(counts)
    for pw in np.unique(pow2):
        sel = np.flatnonzero(pow2 == pw)
        group = vertices[sel]
        cs = counts[sel]
        gmax = int(cs.max())
        P = np.zeros((len(group), gmax), dtype=np.float64)
        P[np.arange(gmax)[None, :] < cs[:, None]] = data[
            multi_range(indptr[group], cs)
        ]
        X[group, :width] = poisson_binomial_pmf_tree(P, support=width - 1)


def normal_approx_pmf_batch(
    mus: np.ndarray,
    variances: np.ndarray,
    lengths: np.ndarray,
    *,
    support: int,
) -> np.ndarray:
    """CLT degree PMFs for a batch of vertices in one array-``erf`` pass.

    Row ``r`` reproduces
    ``degree_pmf(probs_r, method="normal", support=support)`` given
    ``mus[r] = Σ p``, ``variances[r] = Σ p(1-p)`` and
    ``lengths[r] = ℓ_r`` (the addend count, which bounds the true
    support): the left tail is closed into bin 0, the right tail into
    bin ``ℓ_r`` when that bin is retained, entries beyond ``ℓ_r`` are
    zero, and rows with zero variance degenerate to a point mass.

    Parameters
    ----------
    mus, variances, lengths:
        Per-row moments and addend counts, all of shape ``(rows,)``.
    support:
        Output has ``support + 1`` columns; truncation drops tail mass.

    Returns
    -------
    numpy.ndarray
        ``(rows, support + 1)`` matrix of approximate point probabilities.
    """
    mus = np.asarray(mus, dtype=np.float64)
    variances = np.asarray(variances, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if not (mus.shape == variances.shape == lengths.shape) or mus.ndim != 1:
        raise ValueError("mus/variances/lengths must be equal-length 1-D arrays")
    width = int(support) + 1
    if width < 1:
        raise ValueError(f"support must be non-negative, got {support}")
    out = np.zeros((len(mus), width), dtype=np.float64)

    degenerate = variances <= 0.0
    if degenerate.any():
        # All addends are certain: the PMF is a delta at round(μ),
        # clipped to the true support like the scalar path.
        pos = np.minimum(lengths[degenerate], np.rint(mus[degenerate]).astype(np.int64))
        rows = np.flatnonzero(degenerate)
        retained = pos < width
        out[rows[retained], pos[retained]] = 1.0

    rows = np.flatnonzero(~degenerate)
    if rows.size:
        mu = mus[rows][:, None]
        sigma = np.sqrt(variances[rows])[:, None]
        ell = lengths[rows]
        grid = np.arange(width + 1, dtype=np.float64) - 0.5
        cdf = 0.5 * (1.0 + erf_array((grid[None, :] - mu) / (sigma * _SQRT2)))
        cdf[:, 0] = 0.0  # close the left tail into bin 0
        # Close the right tail into bin ℓ when that bin survives truncation.
        closable = np.flatnonzero(ell + 1 <= width)
        cdf[closable, ell[closable] + 1] = 1.0
        pmf = np.diff(cdf, axis=1)
        pmf[np.arange(width)[None, :] > ell[:, None]] = 0.0
        out[rows] = pmf
    return out


def degree_posterior_matrix(
    indptr: np.ndarray,
    data: np.ndarray,
    *,
    method: str = "auto",
    width: int | None = None,
    kernel: str = "auto",
) -> np.ndarray:
    """The full ``(n, width)`` X matrix from CSR incident probabilities.

    Parameters
    ----------
    indptr, data:
        CSR grouping of per-vertex incident candidate probabilities, as
        produced by
        :meth:`repro.uncertain.UncertainGraph.incident_probability_csr`.
    method:
        ``"exact"`` (Lemma 1 DP for everyone), ``"normal"`` (CLT for
        everyone), or ``"auto"`` (exact up to
        :data:`repro.core.AUTO_EXACT_LIMIT` addends, CLT above) — the
        same per-vertex policy as the scalar
        :func:`repro.core.degree_pmf`.
    width:
        Number of degree columns (default: max addend count plus one,
        i.e. no truncation).  Truncated tail mass is dropped, never
        lumped.
    kernel:
        Exact-row evaluation kernel: ``"staircase"`` (the Lemma-1 DP,
        O(ℓ²) per row), ``"tree"``
        (:func:`poisson_binomial_pmf_tree`, O(ℓ log² ℓ)), or ``"auto"``
        — staircase for rows up to
        :data:`repro.core.degree_distribution.TREE_CROSSOVER_WIDTH`
        addends (where it is measurably faster) and tree above.  Rows
        are kernel-batch-independent, so ``"auto"`` output bit-matches
        whichever kernel each row dispatches to.  The crossover sits
        above :data:`repro.core.AUTO_EXACT_LIMIT`, so ``method="auto"``
        results are identical for every ``kernel`` value.

    Returns
    -------
    numpy.ndarray
        ``(n, width)`` matrix; row ``v`` is the degree PMF of vertex
        ``v`` (possibly truncated).
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    data = np.asarray(data, dtype=np.float64)
    if indptr.ndim != 1 or len(indptr) < 1:
        raise ValueError("indptr must be a non-empty 1-D array")
    n = len(indptr) - 1
    counts = np.diff(indptr)
    if width is None:
        width = int(counts.max(initial=0)) + 1
    width = int(width)
    if width < 1:
        raise ValueError(f"width must be positive, got {width}")
    if data.size and (data.min() < 0.0 or data.max() > 1.0):
        raise ValueError("Bernoulli probabilities must lie in [0, 1]")
    if method == "auto":
        exact_mask = counts <= AUTO_EXACT_LIMIT
    elif method == "exact":
        exact_mask = np.ones(n, dtype=bool)
    elif method == "normal":
        exact_mask = np.zeros(n, dtype=bool)
    else:
        raise ValueError(f"unknown method {method!r}; use exact/normal/auto")
    if kernel not in ("auto", "tree", "staircase"):
        raise ValueError(f"unknown kernel {kernel!r}; use staircase/tree/auto")

    X = np.zeros((n, width), dtype=np.float64)

    exact_vertices = np.flatnonzero(exact_mask)
    if exact_vertices.size:
        exact_counts = counts[exact_vertices]
        if kernel == "staircase":
            tree_sel = np.zeros(len(exact_vertices), dtype=bool)
        elif kernel == "tree":
            tree_sel = exact_counts > 0
        else:
            tree_sel = exact_counts > TREE_CROSSOVER_WIDTH
        tree_vertices = exact_vertices[tree_sel]
        if kernel == "auto":
            _DISPATCH_TREE.add(tree_vertices.size)
            _DISPATCH_STAIRCASE.add(len(exact_vertices) - tree_vertices.size)
        _ROWS_TREE.add(tree_vertices.size)
        _ROWS_STAIRCASE.add(len(exact_vertices) - tree_vertices.size)
        if tree_vertices.size:
            _tree_fill(
                X, tree_vertices, exact_counts[tree_sel], indptr, data, width
            )
        exact_vertices = exact_vertices[~tree_sel]
        exact_counts = exact_counts[~tree_sel]
    if exact_vertices.size:
        # Staircase fold: vertices sorted by descending addend count form
        # a single matrix whose *active prefix* shrinks as the fold
        # advances — step s touches exactly the rows with ℓ > s.  One
        # Python-level iteration per degree level (max ℓ total) advances
        # every exact vertex by one Bernoulli; a row that runs out of
        # addends simply stops updating, leaving its finished PMF behind.
        # Per-element arithmetic is identical to the scalar DP.
        order = np.argsort(-exact_counts, kind="stable")
        sorted_vertices = exact_vertices[order]
        sorted_counts = exact_counts[order]
        # An exact row with ℓ addends has support ≤ ℓ, so the working
        # matrix never needs more than max-ℓ + 1 columns even when the
        # caller's width is larger (X's tail columns stay zero).
        rows = len(sorted_vertices)
        steps = int(sorted_counts[0])
        m_width = min(width, steps + 1)
        M = np.zeros((rows, m_width), dtype=np.float64)
        M[:, 0] = 1.0
        # Active-prefix schedule: step s touches the k_s rows with
        # ℓ > s; with rows in descending-ℓ order that is a prefix, and
        # the whole schedule is one histogram pass instead of a
        # searchsorted per step.
        hist = np.bincount(sorted_counts, minlength=steps + 1)
        ks = rows - np.cumsum(hist)[:steps] if steps else np.empty(0, np.int64)
        # Column-major padded addend matrix: PT[s] is step s's
        # probability column, a contiguous slice instead of a per-step
        # CSR gather; QT carries the complements, computed in one pass.
        # The dense pad costs O(rows·max-ℓ): fine for the auto bucket
        # (ℓ ≤ AUTO_EXACT_LIMIT) but a memory blow-up when exact mode is
        # forced on a skewed graph, so large workloads keep the
        # zero-copy per-step gather (same values, same arithmetic).
        starts = indptr[sorted_vertices]
        dense = rows * steps <= _DENSE_ADDEND_BUDGET
        if dense:
            P = np.zeros((rows, steps), dtype=np.float64)
            P[np.arange(steps)[None, :] < sorted_counts[:, None]] = data[
                multi_range(starts, sorted_counts)
            ]
            PT = np.ascontiguousarray(P.T)
            QT = 1.0 - PT
        for step in range(steps):
            k = int(ks[step])
            if dense:
                p = PT[step, :k, None]
                q = QT[step, :k, None]
            else:
                p = data[starts[:k] + step][:, None]
                q = 1.0 - p
            filled = min(step + 1, m_width - 1)
            # Three-dispatch in-place fold: the shifted term X(ω-1)·p is
            # materialised first, then the whole prefix (column 0
            # included) scales by 1-p and the shift is added back —
            # per-element IEEE operations identical to the fused
            # ``X·(1-p) + X₋₁·p`` / ``X₀·(1-p)`` pair of the scalar DP.
            shifted = M[:k, :filled] * p
            prefix = M[:k, : filled + 1]
            prefix *= q
            prefix[:, 1:] += shifted
        X[sorted_vertices, :m_width] = M

    clt_vertices = np.flatnonzero(~exact_mask)
    if clt_vertices.size:
        _ROWS_CLT.add(clt_vertices.size)
        mus, pqs = _segment_moments(
            data, indptr[clt_vertices], indptr[clt_vertices + 1]
        )
        X[clt_vertices] = normal_approx_pmf_batch(
            mus, pqs, counts[clt_vertices], support=width - 1
        )
    return X


def _segment_moments(
    data: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment CLT moments ``μ = Σ p`` and ``σ² = Σ p(1-p)``.

    Each segment is gathered and reduced with a left fold
    (``np.add.reduceat``) over its own entries only, so a segment's
    moments are a pure function of its slice of ``data`` — evaluating a
    *subset* of vertices yields bit-identical values to evaluating all
    of them, the same row independence as the staircase DP (whose
    per-element arithmetic never crosses rows).
    """
    counts = hi - lo
    mus = np.zeros(len(lo), dtype=np.float64)
    pqs = np.zeros(len(lo), dtype=np.float64)
    nonempty = np.flatnonzero(counts > 0)
    if nonempty.size:
        live = counts[nonempty]
        gathered = data[multi_range(lo[nonempty], live)]
        starts = np.cumsum(live) - live
        mus[nonempty] = np.add.reduceat(gathered, starts)
        pqs[nonempty] = np.add.reduceat(gathered * (1.0 - gathered), starts)
    return mus, pqs


def _incidence_csr(
    n: int, us: np.ndarray, vs: np.ndarray, ps: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical incidence CSR of a code-sorted pair list.

    Produces the exact layout of
    :meth:`repro.uncertain.UncertainGraph.incident_probability_csr`
    (per vertex: ``us``-side entries in pair order, then ``vs``-side
    entries in pair order) without sorting the full ``2m`` endpoint
    array: ``us`` is already non-decreasing when pairs are code-sorted,
    so only the ``vs`` side needs an argsort and both sides scatter to
    directly computed destinations.

    Returns ``(counts, indptr, data)``.
    """
    m = len(us)
    counts_us = np.bincount(us, minlength=n)
    counts_vs = np.bincount(vs, minlength=n)
    counts = counts_us + counts_vs
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    data = np.empty(2 * m, dtype=np.float64)
    if m:
        us_start = np.cumsum(counts_us) - counts_us
        data[indptr[us] + (np.arange(m) - us_start[us])] = ps
        # Stable sort of the vs side via one unstable sort of packed
        # (vertex, position) keys — positions occupy the low bits.
        pos_bits = max((m - 1).bit_length(), 1)
        packed = (vs << pos_bits) | np.arange(m)
        packed.sort()
        order_vs = packed & ((1 << pos_bits) - 1)
        vs_sorted = packed >> pos_bits
        vs_start = np.cumsum(counts_vs) - counts_vs
        dest_vs = (
            indptr[vs_sorted]
            + counts_us[vs_sorted]
            + (np.arange(m) - vs_start[vs_sorted])
        )
        data[dest_vs] = ps[order_vs]
    return counts, indptr, data


#: Degree buckets of :func:`fold_in_staircase`'s convolution pass: rows
#: are grouped by additions-PMF degree rounded up to these caps so each
#: bucket resolves as one batched window/coefficient contraction.
_FOLD_DEGREE_CAPS = (1, 2, 4, 8, 16, 32, 64, 1 << 30)


def fold_in_staircase(
    rows: np.ndarray,
    indptr: np.ndarray,
    data: np.ndarray,
    *,
    support: np.ndarray | None = None,
    active: np.ndarray | None = None,
    overwrite: bool = False,
    kernel: str = "auto",
) -> np.ndarray:
    """Fold a ragged batch of Bernoullis into warm DP rows.

    Row ``r`` receives the entries ``data[indptr[r]:indptr[r+1]]``: the
    result equals folding them in one Lemma-1 step at a time (up to
    float reordering, ≤1e-12 — pinned by the fold tests).
    Rows with no entries pass through untouched.

    The evaluation is *two-stage* to stay dispatch-bound instead of
    Python-bound: first each row's entries collapse into their own
    Poisson-binomial PMF (a cold active-prefix staircase over a
    ``(rows, max-count + 1)`` matrix — tiny, since counts are bounded
    by the exact bucket), then that *product polynomial* is convolved
    into the warm row, bucketed by polynomial degree so each retained
    coefficient is one full-width multiply-add over the whole bucket.
    A sum of independent variables is the convolution of their PMFs, so
    the two-stage result is the same distribution as the sequential
    fold — only the floating-point grouping differs.

    This is the array probe path's hot loop: the per-probe base
    rows (original-edge entries only, stable across attempts) get each
    attempt's candidate *additions* folded in — for all attempts of a
    probe stacked into one call.

    Parameters
    ----------
    rows:
        ``(R, width)`` float64 matrix of DP rows (not modified unless
        ``overwrite``).
    indptr:
        ``(R + 1,)`` CSR offsets into ``data``.
    data:
        Bernoulli success probabilities, grouped per row.
    support:
        Optional per-row count of leading columns that may be non-zero
        on entry (e.g. ``kept degree + 1`` for base rows) — lets the
        convolution pass stop at each bucket's true final support
        instead of sweeping the full retained width.  Defaults to the
        full width (no assumption).
    active:
        Optional boolean row mask; rows outside it are left untouched
        even when they have entries (the probe path passes the whole
        posterior stack plus the all-rows additions CSR and masks the
        rows that will be recomputed outright).
    overwrite:
        When true, ``rows`` (which must be a C-contiguous float64
        array) is updated in place and returned — the probe path's
        stack is large enough that a defensive copy would dominate.
    kernel:
        Stage-1 product-polynomial kernel, per row-width:
        ``"staircase"``, ``"tree"``, or ``"auto"`` (staircase up to
        :data:`repro.core.degree_distribution.TREE_CROSSOVER_WIDTH`
        entries per row, the tree-product/FFT kernel above) — the same
        dispatch as :func:`degree_posterior_matrix`.

    Returns
    -------
    numpy.ndarray
        The ``(R, width)`` result — a new matrix, or ``rows`` itself
        when ``overwrite`` is set.
    """
    if overwrite:
        if (
            not isinstance(rows, np.ndarray)
            or rows.dtype != np.float64
            or not rows.flags.c_contiguous
        ):
            raise ValueError("overwrite=True needs a C-contiguous float64 array")
        out = rows
    else:
        rows = np.asarray(rows, dtype=np.float64)
        out = None
    indptr = np.asarray(indptr, dtype=np.int64)
    data = np.asarray(data, dtype=np.float64)
    if rows.ndim != 2 or len(indptr) != rows.shape[0] + 1:
        raise ValueError("rows must be (R, width) with R + 1 indptr offsets")
    if data.size and (data.min() < 0.0 or data.max() > 1.0):
        raise ValueError("Bernoulli probabilities must lie in [0, 1]")
    if kernel not in ("auto", "tree", "staircase"):
        raise ValueError(f"unknown kernel {kernel!r}; use staircase/tree/auto")
    width = rows.shape[1]
    counts = np.diff(indptr)
    if active is not None:
        counts = np.where(np.asarray(active, dtype=bool), counts, 0)
    if out is None:
        out = rows.copy()
    jmax = int(counts.max(initial=0))
    if jmax == 0:
        return out

    # Stage 1 — per-row product polynomials: the Poisson-binomial PMF
    # of each row's own entries, via the usual descending-count
    # staircase (support grows with the step, so the working width is
    # the step count, not the row width).
    live = np.flatnonzero(counts)
    order = live[np.argsort(-counts[live], kind="stable")]
    sorted_counts = counts[order]
    starts = indptr[order]
    poly = np.zeros((len(order), min(jmax, width - 1) + 1), dtype=np.float64)
    poly[:, 0] = 1.0
    if kernel == "staircase":
        nwide = 0
    elif kernel == "tree":
        nwide = len(order)
    else:
        # Descending sort ⇒ rows beyond the crossover form a prefix.
        nwide = int(
            np.searchsorted(-sorted_counts, -TREE_CROSSOVER_WIDTH, side="left")
        )
    _FOLD_ROWS.add(len(order))
    _FOLD_ROWS_TREE.add(nwide)
    _FOLD_ROWS_STAIRCASE.add(len(order) - nwide)
    if kernel == "auto":
        _DISPATCH_TREE.add(nwide)
        _DISPATCH_STAIRCASE.add(len(order) - nwide)
    if nwide:
        # Wide rows: product polynomial via the tree kernel, grouped by
        # padded leaf width (same per-row determinism as _tree_fill).
        pow2 = _padded_leaf_widths(sorted_counts[:nwide])
        sup = poly.shape[1] - 1
        for pw in np.unique(pow2):
            sel = np.flatnonzero(pow2 == pw)
            cs = sorted_counts[sel]
            gmax = int(cs.max())
            P = np.zeros((len(sel), gmax), dtype=np.float64)
            P[np.arange(gmax)[None, :] < cs[:, None]] = data[
                multi_range(starts[sel], cs)
            ]
            poly[sel] = poisson_binomial_pmf_tree(P, support=sup)
    narrow = len(order) - nwide
    if narrow:
        starts_n = starts[nwide:]
        counts_n = sorted_counts[nwide:]
        jnarrow = int(counts_n[0])
        hist = np.bincount(counts_n, minlength=jnarrow + 1)
        ks = narrow - np.cumsum(hist)[:jnarrow]
        dense = narrow * jnarrow <= _DENSE_ADDEND_BUDGET
        if dense:
            # Column-major padded addend matrix, filled with one flat
            # scatter (entry e of sorted row r lands at PT[e, r]) — far
            # cheaper than a boolean-masked assignment into (rows, jmax).
            total = int(counts_n.sum())
            flat_start = np.concatenate([[0], np.cumsum(counts_n[:-1])])
            within = np.arange(total, dtype=np.int64) - np.repeat(
                flat_start, counts_n
            )
            row_of = np.repeat(np.arange(narrow, dtype=np.int64), counts_n)
            PT = np.zeros((jnarrow, narrow), dtype=np.float64)
            PT[within, row_of] = data[multi_range(starts_n, counts_n)]
        npoly = poly[nwide:]
        for step in range(jnarrow):
            k = int(ks[step])
            p = PT[step, :k, None] if dense else data[starts_n[:k] + step][:, None]
            filled = min(step + 1, poly.shape[1] - 1)
            shifted = npoly[:k, :filled] * p
            prefix = npoly[:k, : filled + 1]
            prefix *= 1.0 - p
            prefix[:, 1:] += shifted

    # Stage 2 — convolve each polynomial into its warm row:
    # ``out[ω] = Σ_t base[ω-t]·poly[t]`` is a banded matvec, so each
    # degree bucket left-pads its rows with ``tcap`` zeros, views them
    # as sliding windows of ``tcap + 1`` columns and contracts against
    # the (reversed) coefficient vectors in one ``einsum`` — a handful
    # of fat dispatches instead of a per-entry fold loop.  Folding a
    # Bernoulli grows support by one, so each bucket also trims its
    # columns to the bucket's largest final support
    # (``support + degree``): on wide graphs the exact rows live far
    # below the retained width and the trim is the difference between
    # flop-bound and memory-bound.
    degree = np.minimum(sorted_counts, poly.shape[1] - 1)
    if poly.shape[1] == 1:
        # Width-1 rows truncate every polynomial to its constant term:
        # the "convolution" is a plain scale by ∏(1-p), which the
        # degree buckets below (which start at degree 1) never visit.
        out[order, 0] *= poly[:, 0]
        return out
    if support is None:
        final = np.full(len(order), width, dtype=np.int64)
    else:
        support = np.asarray(support, dtype=np.int64)
        if support.shape != (rows.shape[0],):
            raise ValueError("support must have one entry per row")
        final = np.minimum(support[order] + degree, width)
    # Rows are count-sorted descending, so each degree bucket — rows
    # with degree in (previous cap, cap] — is a contiguous slice.
    prev_cap = 0
    for cap in _FOLD_DEGREE_CAPS:
        if prev_cap >= jmax:
            break
        sel_hi = int(np.searchsorted(-degree, -prev_cap - 1, side="right"))
        sel_lo = int(np.searchsorted(-degree, -cap, side="left"))
        prev_cap = cap
        if sel_lo >= sel_hi:
            continue
        rows_b = order[sel_lo:sel_hi]
        tcap = int(degree[sel_lo])
        supcap = int(final[sel_lo:sel_hi].max())
        base_b = out[rows_b, :supcap]
        if tcap <= 2:
            # One or two coefficients: direct shift-multiply-adds beat
            # the window machinery.
            acc = base_b * poly[sel_lo:sel_hi, 0:1]
            for t in range(1, tcap + 1):
                acc[:, t:] += base_b[:, :-t] * poly[sel_lo:sel_hi, t : t + 1]
        else:
            padded = np.zeros((len(rows_b), tcap + supcap), dtype=np.float64)
            padded[:, tcap:] = base_b
            windows = np.lib.stride_tricks.sliding_window_view(
                padded, tcap + 1, axis=1
            )
            # windows[r, ω, i] = base[r, ω + i - tcap] pairs with poly
            # coefficient t = tcap - i.
            coeffs = np.ascontiguousarray(
                poly[sel_lo:sel_hi, : tcap + 1][:, ::-1]
            )
            acc = np.einsum("rwi,ri->rw", windows, coeffs)
        out[rows_b, :supcap] = acc
    return out
