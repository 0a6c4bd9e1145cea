"""Batched possible-world sampling: ``W`` worlds in one Bernoulli pass.

A :class:`WorldBatch` is the multi-world counterpart of
:class:`repro.uncertain.sampling.WorldSampler`: instead of flipping the
``m`` candidate pairs once per world, it draws a ``(W, m)`` uniform
matrix in a single RNG call and compares it against the shared
probability vector.  Because NumPy's ``Generator.random`` consumes the
underlying bit stream in C order, row ``w`` of that matrix is exactly
the ``w``-th vector a sequential sampler would have drawn from the same
generator — so a batch and ``WorldSampler.sample_many`` with the same
seed produce *identical* edge sets.  Equivalence tests pin this.

The keep matrix is stored **bit-packed** (``W × ⌈m/8⌉`` bytes) so that
hundreds of worlds over hundreds of thousands of candidate pairs fit
comfortably in memory; the boolean view is unpacked transiently when a
kernel needs it.  A world becomes a :class:`repro.graphs.graph.Graph`
only on request, as one CSR array build by
:meth:`~repro.graphs.graph.Graph.from_edge_array` — the batch itself
never holds per-world Python objects.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.exec.plan import draw_rows_per_pass
from repro.graphs.graph import Graph, read_only
from repro.graphs.triangles import LANE_WIDTH
from repro.obs.metrics import REGISTRY as _OBS
from repro.uncertain.graph import UncertainGraph
from repro.utils.rng import as_rng

# Slice-reuse accounting (repro.obs): how often the shared union
# incidence is actually built vs served from the travelling cell —
# the structural win of PR 6's streaming slice path, now observable.
_UNION_BUILT = _OBS.counter("worlds.union_incidence.built")
_UNION_REUSED = _OBS.counter("worlds.union_incidence.reused")
_WORLDS_SAMPLED = _OBS.counter("worlds.sampled")


def draw_packed_keep_bits(rng, worlds: int, m: int, predicate) -> np.ndarray:
    """``(W, ⌈m/8⌉)`` packed keep bits from a row-grouped uniform draw.

    ``predicate`` maps each ``(count, m)`` uniform block to its boolean
    keep block (e.g. ``u < ps`` for world sampling, ``u >= p`` for the
    sparsification release engine).  Row groups bound the float64
    uniform transient (:func:`repro.exec.plan.draw_rows_per_pass`);
    C-order row fill means any grouping consumes the identical RNG
    stream, which is what keeps every batch sampler seed-equivalent to
    its sequential counterpart.  The bits are read-only, like every
    array a pool worker inherits.
    """
    rows_per_draw = draw_rows_per_pass(m)
    parts = []
    for lo in range(0, worlds, rows_per_draw):
        count = min(rows_per_draw, worlds - lo)
        keep = predicate(rng.random((count, m)))
        parts.append(
            np.packbits(keep, axis=1)
            if keep.size
            else np.zeros((count, 0), dtype=np.uint8)
        )
    if not parts:
        parts = [np.zeros((0, (m + 7) // 8), dtype=np.uint8)]
    packed = np.concatenate(parts, axis=0)
    read_only(packed)
    return packed


class _UnionIncidence:
    """Sorted directed incidence of one candidate-pair array set.

    Pair ``j = (u, v)`` contributes the two directed incidences
    ``u → v`` and ``v → u``; sorting them once by ``(head, tail)`` fixes,
    for every possible world, the relative order its kept incidences
    appear in a CSR.  ``pair[s]`` maps sorted slot ``s`` back to the
    candidate pair it came from, so a batch's CSR reduces to one boolean
    gather + ``np.nonzero`` — no per-batch ``lexsort`` over kept edges.
    Built lazily and shared by every :meth:`WorldBatch.slice` view of the
    same candidate arrays (worlds share ≥90% of kept pairs at paper σ,
    and the sort cost is per *pair set*, not per slice).
    """

    __slots__ = ("heads", "tails", "pair")

    def __init__(self, us: np.ndarray, vs: np.ndarray):
        m = len(us)
        heads = np.concatenate([us, vs]).astype(np.int64, copy=False)
        tails = np.concatenate([vs, us]).astype(np.int64, copy=False)
        order = np.lexsort((tails, heads))
        pair = np.concatenate(
            [np.arange(m, dtype=np.int64)] * 2
        )[order] if m else np.zeros(0, dtype=np.int64)
        self.heads, self.tails, self.pair = read_only(
            heads[order], tails[order], pair
        )


class WorldBatch:
    """``W`` possible worlds of one uncertain graph, held as packed bits.

    Construct via :meth:`sample` (the normal path) or
    :meth:`from_keep_matrix` (tests / replay).

    Examples
    --------
    >>> from repro.uncertain import UncertainGraph
    >>> ug = UncertainGraph.from_pairs(3, [(0, 1, 1.0), (1, 2, 0.0)])
    >>> batch = WorldBatch.sample(ug, 4, seed=0)
    >>> [g.num_edges for g in batch.graphs()]
    [1, 1, 1, 1]
    """

    __slots__ = (
        "_n",
        "_us",
        "_vs",
        "_num_worlds",
        "_num_pairs",
        "_packed",
        "_csr",
        "_union_cell",
    )

    def __init__(
        self,
        n: int,
        us: np.ndarray,
        vs: np.ndarray,
        packed: np.ndarray,
        num_pairs: int,
        *,
        union_cell: list | None = None,
    ):
        self._n = int(n)
        self._us = us
        self._vs = vs
        self._packed = packed
        self._num_worlds = packed.shape[0]
        self._num_pairs = int(num_pairs)
        self._csr: tuple[np.ndarray, np.ndarray] | None = None
        # One-element holder for the lazily built sorted incidence, so a
        # slice built *before* the parent's CSR still shares the result.
        self._union_cell: list = union_cell if union_cell is not None else [None]

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def sample(
        cls,
        uncertain: UncertainGraph,
        worlds: int,
        *,
        seed=None,
    ) -> "WorldBatch":
        """Draw ``worlds`` independent possible worlds in one pass.

        Parameters
        ----------
        uncertain:
            The published uncertain graph.
        worlds:
            Number of worlds ``W``.
        seed:
            Anything :func:`repro.utils.rng.as_rng` accepts.  Passing a
            ``Generator`` consumes ``W·m`` uniforms from it — the same
            stream positions a sequential sampler would use, so batched
            and sequential draws from one generator interleave exactly.
        """
        if worlds < 0:
            raise ValueError(f"number of worlds must be non-negative, got {worlds}")
        us, vs, ps = uncertain.pair_arrays()
        rng = as_rng(seed)
        packed = draw_packed_keep_bits(
            rng, worlds, len(ps), lambda uniforms: uniforms < ps
        )
        _WORLDS_SAMPLED.add(worlds)
        return cls(uncertain.num_vertices, us, vs, packed, len(ps))

    @classmethod
    def from_keep_matrix(
        cls, n: int, us: np.ndarray, vs: np.ndarray, keep: np.ndarray
    ) -> "WorldBatch":
        """Wrap an explicit boolean ``(W, m)`` keep matrix (tests/replay)."""
        keep = np.asarray(keep, dtype=bool)
        if keep.ndim != 2 or keep.shape[1] != len(us):
            raise ValueError(
                f"keep matrix must have shape (W, {len(us)}), got {keep.shape}"
            )
        packed = np.packbits(keep, axis=1) if keep.size else np.zeros(
            (keep.shape[0], 0), dtype=np.uint8
        )
        read_only(packed)
        return cls(n, us, vs, packed, keep.shape[1])

    # ------------------------------------------------------------------
    # shape accessors
    # ------------------------------------------------------------------
    @property
    def num_worlds(self) -> int:
        """Number of worlds ``W`` in the batch."""
        return self._num_worlds

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n`` (shared by every world)."""
        return self._n

    @property
    def num_candidate_pairs(self) -> int:
        """Number of candidate pairs ``m`` flipped per world."""
        return self._num_pairs

    @property
    def nbytes(self) -> int:
        """Memory held by the packed keep matrix."""
        return int(self._packed.nbytes)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def keep_matrix(self) -> np.ndarray:
        """The boolean ``(W, m)`` keep matrix (unpacked transiently)."""
        if self._num_pairs == 0:
            return np.zeros((self._num_worlds, 0), dtype=bool)
        return np.unpackbits(self._packed, axis=1, count=self._num_pairs).astype(
            bool, copy=False
        )

    def world_mask(self, w: int) -> np.ndarray:
        """Boolean keep vector of world ``w``."""
        if not 0 <= w < self._num_worlds:
            raise IndexError(f"world index {w} out of range [0, {self._num_worlds})")
        if self._num_pairs == 0:
            return np.zeros(0, dtype=bool)
        return np.unpackbits(self._packed[w], count=self._num_pairs).astype(
            bool, copy=False
        )

    def world_edges(self, w: int) -> np.ndarray:
        """Edges of world ``w`` as an ``(m_w, 2)`` array."""
        mask = self.world_mask(w)
        return np.column_stack([self._us[mask], self._vs[mask]])

    def lanes(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pair-major keep lanes of worlds ``lo:hi`` (at most 64).

        Returns
        -------
        (us, vs, lanes):
            The candidate pairs that some world of the slice keeps and,
            per pair, a ``uint64`` whose bit ``w`` is set when world
            ``lo + w`` keeps it — the input of
            :func:`repro.graphs.triangles.count_triangles`.
        """
        if not 0 <= lo <= hi <= self._num_worlds or hi - lo > LANE_WIDTH:
            raise IndexError(
                f"lane slice [{lo}, {hi}) out of range [0, {self._num_worlds}] "
                f"or wider than {LANE_WIDTH} worlds"
            )
        keep = self.slice(lo, hi).keep_matrix()
        octets = np.zeros((self._num_pairs, 8), dtype=np.uint8)
        rows = np.packbits(keep, axis=0, bitorder="little")
        octets[:, : len(rows)] = rows.T
        lanes = octets.view("<u8").ravel()
        kept = np.flatnonzero(lanes)
        return self._us[kept], self._vs[kept], lanes[kept]

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR adjacency of the ``W·n``-vertex disjoint-union graph.

        Returns
        -------
        (indptr, indices):
            ``indices[indptr[x]:indptr[x+1]]`` are the sorted neighbours
            of flattened vertex ``x = w·n + v``.  World ``w`` occupies
            rows ``[w·n, (w+1)·n)``; slicing ``indptr`` there yields the
            world's own CSR.  Built once per batch and cached.
        """
        if self._csr is None:
            union = self.union_incidence()
            # Gathering the keep matrix through ``union.pair`` lays every
            # world's incidences out in (head, tail) order, so one C-order
            # ``np.nonzero`` replaces the former per-batch full lexsort:
            # rows ascend by world, columns by sorted slot, i.e. exactly
            # the (w·n + head, tail) order the lexsort produced (the keys
            # are unique — candidate pairs are distinct within a world).
            keep = self.keep_matrix()[:, union.pair]
            w_idx, slot = np.nonzero(keep)
            offset = w_idx * np.int64(self._n)
            counts = np.bincount(
                offset + union.heads[slot], minlength=self._num_worlds * self._n
            )
            indptr = np.zeros(self._num_worlds * self._n + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            self._csr = (indptr, offset + union.tails[slot])
        return self._csr

    def union_incidence(self) -> _UnionIncidence:
        """The shared sorted directed incidence of the candidate pairs.

        Built once per candidate-pair array set and reused by every
        :meth:`slice` view (the holder travels with the slice), so
        sliced evaluation sorts the union structure exactly once.
        """
        if self._union_cell[0] is None:
            self._union_cell[0] = _UnionIncidence(self._us, self._vs)
            _UNION_BUILT.add(1)
        else:
            _UNION_REUSED.add(1)
        return self._union_cell[0]

    def slice(self, lo: int, hi: int) -> "WorldBatch":
        """Worlds ``lo:hi`` as a new batch sharing the candidate arrays.

        A cheap packed-row slice (no unpack/repack); the sub-batch's
        world ``w`` is this batch's world ``lo + w``.  Evaluation
        kernels applied per slice produce exactly the values they would
        inside the full batch (worlds never interact), which is what
        lets the estimator bound its working set to a cache-friendly
        number of worlds.
        """
        if not 0 <= lo <= hi <= self._num_worlds:
            raise IndexError(
                f"slice [{lo}, {hi}) out of range [0, {self._num_worlds}]"
            )
        return WorldBatch(
            self._n,
            self._us,
            self._vs,
            self._packed[lo:hi],
            self._num_pairs,
            union_cell=self._union_cell,
        )

    # ------------------------------------------------------------------
    # materialisation
    # ------------------------------------------------------------------
    def world_graph(self, w: int) -> Graph:
        """Materialise world ``w`` as a :class:`Graph` (bulk constructor)."""
        return Graph.from_edge_array(self._n, self.world_edges(w))

    def graphs(self) -> Iterator[Graph]:
        """Lazily materialise every world in order."""
        for w in range(self._num_worlds):
            yield self.world_graph(w)
