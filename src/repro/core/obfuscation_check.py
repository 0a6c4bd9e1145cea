"""Quantifying obfuscation: the X/Y posterior matrices and Definition 2.

Given an uncertain graph, ``X_v(ω)`` is the probability that vertex ``v``
has degree ``ω`` across possible worlds (Equation 2; for the degree
property this is exactly the Poisson-binomial PMF of §4).  Normalising a
*column* gives ``Y_ω(v)`` — the adversary's posterior over published
vertices for a target known to have degree ``ω`` in the original graph
(Equation 3).

Definition 2: ``G̃`` k-obfuscates ``v`` iff ``H(Y_{P(v)}) ≥ log2 k``, and
is a (k, ε)-obfuscation iff at least ``(1-ε)·n`` vertices are
k-obfuscated.

The checker computes one posterior column per *distinct* original degree
(vertices sharing a degree share a column), which is what makes the
verification loop inside Algorithm 2 affordable.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.posterior_batch import degree_posterior_matrix
from repro.graphs.graph import Graph
from repro.uncertain.graph import UncertainGraph

#: Rows per block of :func:`column_mass_stack`'s row-major → column-major
#: gather.  Blocked, the transposing copy ran about twice as fast as one
#: whole-attempt fancy index (n ≈ 45k rows, 64 columns, x86-64).
_GATHER_ROWS = 4096


class DegreePosterior:
    """Dense ``X_v(ω)`` matrix with entropy/obfuscation queries.

    Parameters
    ----------
    matrix:
        ``(n, width)`` array; row ``v`` holds ``Pr(d_v = ω)`` for
        ``ω < width``.  When ``width`` truncates a vertex's support the
        dropped tail mass is *discarded* (never lumped), so every stored
        entry is the exact point probability; truncated rows may sum to
        less than 1, which is harmless because posterior columns are
        normalised independently.

    Notes
    -----
    An all-zero column means no vertex can attain that degree in any
    world.  Definition 2 leaves this case implicit; we treat it as *not*
    obfuscated (entropy 0): an adversary holding an impossible property
    value learns the release is inconsistent with its target, which the
    obfuscation algorithm must not count as protection.
    """

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError("posterior matrix must be 2-D (vertices × degrees)")
        self._matrix = matrix

    @property
    def matrix(self) -> np.ndarray:
        """The raw ``(n, width)`` X matrix."""
        return self._matrix

    @property
    def num_vertices(self) -> int:
        """Number of rows (vertices)."""
        return self._matrix.shape[0]

    @property
    def width(self) -> int:
        """Number of degree columns."""
        return self._matrix.shape[1]

    def x_column(self, omega: int) -> np.ndarray:
        """Unnormalised column ``X_·(ω)``; zeros if ω is out of range."""
        if not 0 <= omega < self.width:
            return np.zeros(self.num_vertices, dtype=np.float64)
        return self._matrix[:, omega]

    def y_column(self, omega: int) -> np.ndarray:
        """``Y_ω(·)`` — the adversary posterior (Equation 3).

        Raises
        ------
        ValueError
            If the column has zero total mass (posterior undefined).
        """
        col = self.x_column(omega)
        total = col.sum()
        if total <= 0.0:
            raise ValueError(f"degree {omega} is unattainable; posterior undefined")
        return col / total

    def column_entropy(self, omega: int) -> float:
        """``H(Y_ω)`` in bits; 0.0 for unattainable degrees (see class notes).

        Routed through :meth:`column_entropies` so the scalar and
        vectorised paths agree bit-for-bit on every column.
        """
        return float(self.column_entropies(np.array([omega]))[0])

    def column_entropies(self, omegas: np.ndarray) -> np.ndarray:
        """``H(Y_ω)`` for a whole array of degrees in one vectorised pass.

        Out-of-range and unattainable (zero-mass) degrees yield 0.0,
        like :meth:`column_entropy`.  One ``(n, |ω|)`` normalise-and-
        ``x·log2 x`` evaluation covers every column, with no Python loop
        over them — the Definition-2 checker runs once per Algorithm-2
        attempt, so this is on the σ search's hot path.
        """
        omegas = np.asarray(omegas, dtype=np.int64)
        out = np.zeros(omegas.shape, dtype=np.float64)
        valid = (omegas >= 0) & (omegas < self.width)
        if not valid.any():
            return out
        cols = self._matrix[:, omegas[valid]]
        totals = cols.sum(axis=0)
        attainable = totals > 0.0
        if attainable.any():
            cols = cols[:, attainable]
            # H(c/T) = log2 T − (Σ c·log2 c)/T — one log2 pass over the
            # unnormalised columns instead of normalise-then-log, with
            # the 0·log 0 = 0 convention handled by a masked write.
            plogp = np.zeros_like(cols)
            np.log2(cols, out=plogp, where=cols > 0.0)
            plogp *= cols
            live_totals = totals[attainable]
            entropies = np.zeros(len(totals), dtype=np.float64)
            entropies[attainable] = (
                np.log2(live_totals) - plogp.sum(axis=0) / live_totals
            )
            out[valid] = entropies
        return out

    def obfuscation_entropies(self, degrees: np.ndarray) -> np.ndarray:
        """Per-vertex entropy ``H(Y_{P(v)})`` for original degrees ``P(v)``."""
        degrees = np.asarray(degrees, dtype=np.int64)
        if degrees.shape[0] != self.num_vertices:
            raise ValueError("need one original degree per vertex")
        distinct, inverse = np.unique(degrees, return_inverse=True)
        return self.column_entropies(distinct)[inverse]

    def obfuscation_levels(self, degrees: np.ndarray) -> np.ndarray:
        """Per-vertex obfuscation level ``2^{H(Y_{P(v)})}`` ("effective k").

        On a certain graph this equals the number of vertices sharing the
        degree, recovering plain k-anonymity counts; Figure 4 of the paper
        plots cumulative counts of exactly this quantity.
        """
        return np.exp2(self.obfuscation_entropies(degrees))

    def k_obfuscated(self, degrees: np.ndarray, k: float) -> np.ndarray:
        """Boolean mask: which vertices are k-obfuscated (Definition 2)."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        return self.obfuscation_entropies(degrees) >= math.log2(k) - 1e-12


def column_mass_stack(
    stack: np.ndarray, omegas: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-attempt column mass ``T = Σ_v c`` and ``S = Σ_v c·log2 c``.

    The Definition-2 reduction of the batched probe path, which adds
    its CLT rows' mass before forming ``H = log2 T − S/T`` with
    :func:`entropies_from_column_mass`.  ``stack`` is
    ``(t, n, width)``; both outputs are ``(t, len(omegas))``, with
    out-of-range degrees contributing zero mass.  Row ``a`` is
    bit-identical to what :meth:`DegreePosterior.column_entropies`
    sums for ``stack[a]``.
    """
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 3:
        raise ValueError("stack must be 3-D (attempts × vertices × degrees)")
    omegas = np.asarray(omegas, dtype=np.int64)
    t, n, width = stack.shape
    totals = np.zeros((t, len(omegas)), dtype=np.float64)
    sums = np.zeros((t, len(omegas)), dtype=np.float64)
    valid = (omegas >= 0) & (omegas < width)
    if valid.any():
        picked = omegas[valid]
        # One attempt at a time, in column-major (n, |ω|) buffers: each
        # column mass is numpy's pairwise sum over that attempt's n
        # contiguous rows — the per-attempt evaluation's arithmetic.
        cols = np.empty((len(picked), n), dtype=np.float64).T
        plogp = np.empty_like(cols)
        for a in range(t):
            for lo in range(0, n, _GATHER_ROWS):
                hi = lo + _GATHER_ROWS
                cols[lo:hi] = stack[a, lo:hi][:, picked]
            plogp.fill(0.0)
            np.log2(cols, out=plogp, where=cols > 0.0)
            plogp *= cols
            totals[a, valid] = cols.sum(axis=0)
            sums[a, valid] = plogp.sum(axis=0)
    return totals, sums


def entropies_from_column_mass(
    totals: np.ndarray, sums: np.ndarray
) -> np.ndarray:
    """``H = log2 T − S/T`` with the zero-mass → 0 convention."""
    out = np.zeros_like(totals)
    attainable = totals > 0.0
    np.log2(totals, out=out, where=attainable)
    out[attainable] -= sums[attainable] / totals[attainable]
    return out


def compute_degree_posterior(
    uncertain: UncertainGraph,
    *,
    method: str = "auto",
    width: int | None = None,
) -> DegreePosterior:
    """Build the ``X_v(ω)`` matrix of an uncertain graph.

    Parameters
    ----------
    uncertain:
        The published uncertain graph.
    method:
        PMF computation method (see :func:`repro.core.degree_pmf`):
        ``"exact"``, ``"normal"``, or ``"auto"``.
    width:
        Number of degree columns (default: max support over vertices,
        plus one, i.e. no truncation).  Passing the max original degree
        plus one keeps the matrix small when only Definition-2 checks are
        needed; truncated tail mass is discarded, never lumped.

    Returns
    -------
    DegreePosterior

    Notes
    -----
    Runs on the batched engine of :mod:`repro.core.posterior_batch` —
    one CSR export plus a handful of vectorised passes instead of ``n``
    scalar :func:`repro.core.degree_pmf` calls.  Exact rows run the
    Lemma-1 DP at every width, so ``method="exact"`` costs
    O(ℓ·width) per vertex of ℓ incident candidates; ``"auto"`` bounds
    that by sending rows wider than :data:`repro.core.AUTO_EXACT_LIMIT`
    to the CLT.  The scalar loop is the reference in
    ``tests/oracles/posterior.py``, which the equivalence tests pin this
    function against.
    """
    indptr, data = uncertain.incident_probability_csr()
    matrix = degree_posterior_matrix(indptr, data, method=method, width=width)
    return DegreePosterior(matrix)


def tolerance_achieved(
    uncertain: UncertainGraph | None,
    original_degrees: np.ndarray,
    k: float,
    *,
    method: str = "auto",
    posterior: DegreePosterior | None = None,
) -> float:
    """``ε' = |{v not k-obfuscated}| / n`` (Line 20 of Algorithm 2).

    Parameters
    ----------
    uncertain:
        Candidate release.  May be ``None`` when ``posterior`` is
        given.
    original_degrees:
        ``P(v)`` — degrees in the original graph G (the adversary's
        background knowledge).
    k:
        Required obfuscation level.
    method:
        Degree-PMF method forwarded to :func:`compute_degree_posterior`.
    posterior:
        Pre-computed posterior to reuse, if available.
    """
    original_degrees = np.asarray(original_degrees, dtype=np.int64)
    if posterior is None:
        if uncertain is None:
            raise ValueError("need an uncertain graph or a precomputed posterior")
        width = max(int(original_degrees.max(initial=0)) + 1, 1)
        posterior = compute_degree_posterior(
            uncertain, method=method, width=width
        )
    mask = posterior.k_obfuscated(original_degrees, k)
    return float((~mask).sum()) / max(len(mask), 1)


def is_k_eps_obfuscation(
    uncertain: UncertainGraph,
    original: Graph | np.ndarray,
    k: float,
    eps: float,
    *,
    method: str = "auto",
) -> bool:
    """Definition 2 verdict: is ``uncertain`` a (k, ε)-obfuscation of G?

    ``eps`` must lie in ``[0, 1)``, the tolerance range of Definition 2.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must be in [0, 1), got {eps}")
    degrees = original.degrees() if isinstance(original, Graph) else original
    return tolerance_achieved(uncertain, degrees, k, method=method) <= eps
