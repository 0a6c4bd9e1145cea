"""The uncertain graph ``G̃ = (V, p)`` (Definition 1 of the paper).

An uncertain graph assigns to every unordered vertex pair a probability
of being an edge.  Following §3 of the paper, only a sparse candidate set
``E_C ⊆ V2`` carries explicit probabilities; every other pair implicitly
has ``p = 0`` ("certain non-edge").

Possible-world semantics: each pair ``e ∈ E_C`` is an independent
Bernoulli with parameter ``p(e)``; a possible world is a subset
``E_W ⊆ E_C`` with probability ``Π_{e∈E_W} p(e) · Π_{e∉E_W} (1−p(e))``
(Equation 1).

Storage
-------
A release is one probability per candidate pair, so the class is exactly
that: three parallel read-only arrays ``(us, vs, ps)`` with ``us < vs``,
kept in the order they were built.  Every view — the per-vertex
incidence CSR of the posterior engine, the sorted code index behind
:meth:`UncertainGraph.probability` — is derived from them lazily and
cached, and nothing mutates a built graph.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.graphs.graph import Graph, read_only
from repro.utils.validation import check_vertex


class UncertainGraph:
    """Sparse, immutable uncertain graph over vertices ``{0, ..., n-1}``.

    Parameters
    ----------
    n:
        Number of vertices (shared with the original graph G).
        ``UncertainGraph(n)`` is the empty release; releases with pairs
        come from :meth:`from_arrays` or :meth:`from_pairs`.

    Notes
    -----
    A pair with ``p = 0`` and an absent pair agree in every possible
    world, but not in the per-vertex addend count ``ℓ`` of the degree
    posterior, which decides ``method="auto"``'s exact/CLT split.  The
    constructors drop zeros unless ``keep_zero=True``.  Algorithm 2's
    release keeps every candidate pair it drew, even one whose
    perturbation lands exactly on ``p = 0``, and
    :func:`repro.uncertain.io.read_uncertain_graph` keeps zeros too, so
    a written release reads back with the same ``ℓ``.
    """

    __slots__ = ("_n", "_arrays", "_csr", "_index")

    def __init__(self, n: int):
        if n < 0:
            raise ValueError(f"number of vertices must be non-negative, got {n}")
        self._n = int(n)
        self._arrays = read_only(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
        self._csr: tuple[np.ndarray, np.ndarray] | None = None
        self._index: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: Graph) -> "UncertainGraph":
        """Lift a certain graph: every edge gets probability 1."""
        edges = graph.edge_array()
        return cls.from_arrays(
            graph.num_vertices,
            edges[:, 0],
            edges[:, 1],
            np.ones(len(edges), dtype=np.float64),
        )

    @classmethod
    def from_pairs(
        cls, n: int, pairs: Iterable[tuple[int, int, float]]
    ) -> "UncertainGraph":
        """Build from ``(u, v, p)`` triples; see :meth:`from_arrays`."""
        triples = list(pairs)
        us, vs, ps = zip(*triples) if triples else ((), (), ())
        return cls.from_arrays(n, us, vs, ps)

    @classmethod
    def from_arrays(
        cls,
        n: int,
        us: np.ndarray,
        vs: np.ndarray,
        ps: np.ndarray,
        *,
        keep_zero: bool = False,
    ) -> "UncertainGraph":
        """Vectorised constructor from parallel ``(us, vs, ps)`` arrays.

        The one validating constructor: validation, pair ordering and
        zero-dropping are single array passes.  The pairs keep their
        input order (the world sampler consumes its uniforms in pair
        order).

        Parameters
        ----------
        n:
            Number of vertices.
        us, vs:
            Pair endpoints (any order; normalised to ``u < v``).
        ps:
            Pair probabilities in [0, 1].
        keep_zero:
            Retain ``p = 0`` entries in the candidate set; by default
            they are dropped.

        Raises
        ------
        ValueError
            On length mismatch, out-of-range vertices/probabilities,
            self pairs, or duplicate pairs.
        """
        if n < 0:
            raise ValueError(f"number of vertices must be non-negative, got {n}")
        us = np.ascontiguousarray(us, dtype=np.int64).ravel()
        vs = np.ascontiguousarray(vs, dtype=np.int64).ravel()
        ps = np.ascontiguousarray(ps, dtype=np.float64).ravel()
        if not (len(us) == len(vs) == len(ps)):
            raise ValueError(
                f"us/vs/ps must have equal lengths, got "
                f"{len(us)}/{len(vs)}/{len(ps)}"
            )
        if len(us):
            if us.min(initial=0) < 0 or vs.min(initial=0) < 0:
                raise ValueError("vertex ids must be non-negative")
            if us.max(initial=-1) >= n or vs.max(initial=-1) >= n:
                raise ValueError(f"vertex ids must be < n={n}")
            if (us == vs).any():
                raise ValueError("pairs must have distinct endpoints")
            # NaN fails both comparisons, so it is rejected here too.
            if not ((ps >= 0.0) & (ps <= 1.0)).all():
                raise ValueError("probabilities must lie in [0, 1]")
        lo = np.minimum(us, vs)
        hi = np.maximum(us, vs)
        if not keep_zero:
            keep = ps != 0.0
            if not keep.all():
                lo, hi, ps = lo[keep], hi[keep], ps[keep]
        codes = lo * np.int64(n) + hi
        if len(np.unique(codes)) != len(codes):
            raise ValueError("duplicate pairs in from_arrays input")
        ug = cls(n)
        ug._arrays = read_only(lo, hi, ps.copy())  # never freeze the caller's ps
        return ug

    @classmethod
    def _from_trusted_arrays(
        cls, n: int, us: np.ndarray, vs: np.ndarray, ps: np.ndarray
    ) -> "UncertainGraph":
        """Zero-validation constructor for callers that own their arrays.

        The Algorithm-2 array engine builds candidate sets whose pair
        arrays are sorted, duplicate-free, ``u < v``-ordered and
        in-range by construction, and whose probability buffer is fresh
        — re-validating (and re-copying) them per winning attempt is
        pure overhead.  The arrays are frozen in place, so the caller
        must not mutate them afterwards.  Everyone else should use
        :meth:`from_arrays`.
        """
        ug = cls(n)
        ug._arrays = read_only(us, vs, ps)
        return ug

    # ------------------------------------------------------------------
    # array exports (the batched-engine fast path)
    # ------------------------------------------------------------------
    def pair_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Candidate set as parallel read-only ``(us, vs, ps)`` arrays.

        ``us[i] < vs[i]`` for every entry, in construction order.  This
        is the input format of :class:`repro.worlds.WorldBatch` and of
        :meth:`incident_probability_csr`.
        """
        return self._arrays

    def incident_probability_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Incident candidate probabilities of *all* vertices, CSR-grouped.

        Returns
        -------
        (indptr, data):
            ``data[indptr[v]:indptr[v+1]]`` are the probabilities of the
            candidate pairs incident to ``v`` — the Bernoulli vector of
            Equation 4.  Each pair appears twice in ``data`` (once per
            endpoint); ``indptr`` has length ``n + 1``.

        Notes
        -----
        One vectorised pass over the pair arrays; this is what feeds
        the batched Poisson-binomial engine of
        :mod:`repro.core.posterior_batch`.
        """
        if self._csr is None:
            us, vs, ps = self.pair_arrays()
            endpoints = np.concatenate([us, vs])
            duplicated = np.concatenate([ps, ps])
            counts = np.bincount(endpoints, minlength=self._n)
            indptr = np.zeros(self._n + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            order = np.argsort(endpoints, kind="stable")
            self._csr = read_only(indptr, duplicated[order])
        return self._csr

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._n

    @property
    def num_candidate_pairs(self) -> int:
        """Number of pairs carrying an explicit probability (``|E_C|``)."""
        return len(self._arrays[0])

    def probability(self, u: int, v: int) -> float:
        """``p(u, v)``; pairs outside the candidate set return 0."""
        u = check_vertex(u, self._n, "u")
        v = check_vertex(v, self._n, "v")
        if u == v:
            raise ValueError("pairs must have distinct endpoints")
        if self._index is None:
            us, vs, _ = self._arrays
            codes = us * np.int64(self._n) + vs
            order = np.argsort(codes)
            self._index = (codes[order], order)
        codes, order = self._index
        code = min(u, v) * self._n + max(u, v)
        i = int(np.searchsorted(codes, code))
        if i < len(codes) and int(codes[i]) == code:
            return float(self._arrays[2][order[i]])
        return 0.0

    def candidate_pairs(self) -> Iterator[tuple[int, int, float]]:
        """Iterate ``(u, v, p)`` triples of the candidate set (u < v)."""
        us, vs, ps = self._arrays
        return zip(us.tolist(), vs.tolist(), ps.tolist())

    def expected_degrees(self) -> np.ndarray:
        """Vector of expected degrees for all vertices (one add.at pass)."""
        us, vs, ps = self.pair_arrays()
        out = np.zeros(self._n, dtype=np.float64)
        np.add.at(out, us, ps)
        np.add.at(out, vs, ps)
        return out

    def expected_num_edges(self) -> float:
        """``E[S_NE] = Σ_e p(e)`` (the exact formula of §6.2)."""
        return float(self.pair_arrays()[2].sum())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"UncertainGraph(n={self._n}, "
            f"candidate_pairs={self.num_candidate_pairs}, "
            f"expected_edges={self.expected_num_edges():.2f})"
        )
