"""Batched Poisson-binomial posterior engine (§4, vectorised).

The Definition-2 verification loop inside Algorithm 2 needs the full
``X_v(ω)`` matrix — one degree PMF per vertex — once per attempt, per σ
probe of the binary search.  Computing it as ``n`` scalar
:func:`repro.core.degree_pmf` calls is the dominant cost of the whole
obfuscation pipeline, so this module evaluates the matrix in three
vectorised passes over a CSR export of the incident probabilities
(:meth:`repro.uncertain.UncertainGraph.incident_probability_csr`):

* **Exact rows** — vertices destined for the Lemma-1 DP are sorted by
  incident-candidate count ℓ, descending, and folded as one
  *staircase*: step ``s`` advances the prefix of rows with ℓ > s by one
  Bernoulli in a single 2-D column operation.  The fold is truncated at
  the requested ``width``: DP entry ``j`` depends only on entries
  ``≤ j``, so the retained prefix is bit-for-bit identical to folding
  the full support and cutting afterwards.  :func:`fold_in_staircase`
  runs the same staircase to collapse each row's new entries into a
  product polynomial.
* **CLT batch** — large-ℓ vertices take the §4 normal approximation with
  a single ``(rows, width+1)`` array-``erf`` evaluation instead of a
  per-bin ``math.erf`` loop per vertex.
* **Empty vertices** — a direct ``X[v, 0] = 1`` write.

The scalar kernels (:func:`repro.core.degree_pmf` et al.) are the
ground truth: the equivalence tests pin exact rows to the scalar DP bit
for bit, and the whole matrix to the per-vertex loop of
``tests/oracles/posterior.py`` at 1e-12.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

from repro.core.degree_distribution import AUTO_EXACT_LIMIT, _SQRT2
from repro.graphs.traversal import multi_range
from repro.obs.metrics import REGISTRY as _OBS

__all__ = [
    "normal_approx_pmf_batch",
    "degree_posterior_matrix",
    "fold_in_staircase",
]

#: Element budget (≈128 MB of float64) above which the staircase DP
#: streams addend columns from the CSR instead of building the dense
#: padded (rows, max-ℓ) matrix — forced-exact mode on skewed graphs
#: must not pay O(rows·max-ℓ) memory for a per-step gather it can do
#: in place.
_DENSE_ADDEND_BUDGET = 1 << 24

# Kernel-mix accounting (repro.obs): one attribute add per *call*, fed
# from row counts the engine already computed — observational only,
# never touching values or RNG streams.
_ROWS_STAIRCASE = _OBS.counter("posterior.rows.staircase")
_ROWS_CLT = _OBS.counter("posterior.rows.clt")
_FOLD_ROWS = _OBS.counter("posterior.fold.rows")


def _staircase(
    data: np.ndarray, starts: np.ndarray, counts: np.ndarray, ncols: int
) -> np.ndarray:
    """Lemma-1 PMFs of CSR rows sorted by descending addend count.

    Row ``r`` of the ``(len(counts), ncols)`` result is the
    Poisson-binomial PMF of ``data[starts[r] : starts[r] + counts[r]]``,
    folded in entry order and truncated to ``ncols`` columns, with the
    per-element arithmetic of the scalar
    :func:`repro.core.poisson_binomial_pmf` — so the two agree bit for
    bit.  ``counts`` must be non-increasing and non-empty.

    Sorted by descending count, the rows form one matrix whose *active
    prefix* shrinks as the fold advances: step ``s`` touches exactly the
    ``k_s`` rows with more than ``s`` addends.  One Python-level
    iteration per step (max ℓ in total) advances every active row by one
    Bernoulli; a row that runs out of addends stops updating, leaving its
    finished PMF behind.
    """
    rows = len(counts)
    steps = int(counts[0])
    M = np.zeros((rows, ncols), dtype=np.float64)
    M[:, 0] = 1.0
    # The whole active-prefix schedule from one histogram pass instead
    # of a searchsorted per step.
    ks = rows - np.cumsum(np.bincount(counts, minlength=steps + 1))[:steps]
    # Column-major padded addend matrix: PT[s] is step s's probability
    # column, a contiguous slice instead of a per-step CSR gather, filled
    # with one flat scatter (entry e of row r lands at PT[e, r]).  The
    # pad costs O(rows·max-ℓ): fine for the auto bucket (ℓ ≤
    # AUTO_EXACT_LIMIT) but a memory blow-up when exact mode is forced on
    # a skewed graph, so large workloads keep the zero-copy per-step
    # gather (same values, same arithmetic).
    dense = rows * steps <= _DENSE_ADDEND_BUDGET
    if dense:
        within = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        row_of = np.repeat(np.arange(rows, dtype=np.int64), counts)
        PT = np.zeros((steps, rows), dtype=np.float64)
        PT[within, row_of] = data[multi_range(starts, counts)]
    for step in range(steps):
        k = int(ks[step])
        p = PT[step, :k, None] if dense else data[starts[:k] + step][:, None]
        filled = min(step + 1, ncols - 1)
        # Three-dispatch in-place fold: the shifted term X(ω-1)·p is
        # materialised first, then the whole prefix (column 0 included)
        # scales by 1-p and the shift is added back — per-element IEEE
        # operations identical to the fused ``X·(1-p) + X₋₁·p`` /
        # ``X₀·(1-p)`` pair of the scalar DP.
        shifted = M[:k, :filled] * p
        prefix = M[:k, : filled + 1]
        prefix *= 1.0 - p
        prefix[:, 1:] += shifted
    return M


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
        cdf = 0.5 * (1.0 + erf((grid[None, :] - mu) / (sigma * _SQRT2)))
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

    Returns
    -------
    numpy.ndarray
        ``(n, width)`` matrix; row ``v`` is the degree PMF of vertex
        ``v`` (possibly truncated).  Exact rows equal the scalar
        :func:`repro.core.degree_pmf` of the row's CSR entries bit for
        bit, whatever other rows share the call.
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

    X = np.zeros((n, width), dtype=np.float64)

    exact_vertices = np.flatnonzero(exact_mask)
    if exact_vertices.size:
        _ROWS_STAIRCASE.add(exact_vertices.size)
        exact_counts = counts[exact_vertices]
        order = np.argsort(-exact_counts, kind="stable")
        sorted_vertices = exact_vertices[order]
        sorted_counts = exact_counts[order]
        # An exact row with ℓ addends has support ≤ ℓ, so the working
        # matrix never needs more than max-ℓ + 1 columns even when the
        # caller's width is larger (X's tail columns stay zero).
        m_width = min(width, int(sorted_counts[0]) + 1)
        X[sorted_vertices, :m_width] = _staircase(
            data, indptr[sorted_vertices], sorted_counts, m_width
        )

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
) -> np.ndarray:
    """Fold a ragged batch of Bernoullis into warm DP rows.

    Row ``r`` receives the entries ``data[indptr[r]:indptr[r+1]]``: the
    result equals folding them in one Lemma-1 step at a time (up to
    float reordering, ≤1e-12 — pinned by the fold tests).
    Rows with no entries pass through untouched.

    The evaluation is *two-stage* to stay dispatch-bound instead of
    Python-bound: first each row's entries collapse into their own
    Poisson-binomial PMF (the staircase of :func:`degree_posterior_matrix`
    over a ``(rows, max-count + 1)`` matrix — tiny, since counts are
    bounded by the exact bucket), then that *product polynomial* is convolved
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
    # of each row's own entries, via the descending-count staircase
    # (support grows with the step, so the working width is the step
    # count, not the row width).
    live = np.flatnonzero(counts)
    order = live[np.argsort(-counts[live], kind="stable")]
    sorted_counts = counts[order]
    _FOLD_ROWS.add(len(order))
    poly = _staircase(
        data, indptr[order], sorted_counts, min(jmax, width - 1) + 1
    )

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
