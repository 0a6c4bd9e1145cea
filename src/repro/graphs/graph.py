"""Undirected simple graph with integer vertices ``0..n-1``.

This is the certain-graph substrate the whole library builds on.  Design
choices:

* **Immutable CSR storage.**  A graph is two read-only ``int64`` arrays,
  ``indptr`` and ``indices``, with each vertex's neighbours sorted.  The
  paper's algorithms only read the original graph, so every export
  (degrees, edge array, sorted edge codes) is one array pass over the
  rows, and the vectorised BFS, triangle and HyperANF kernels consume the
  arrays directly.  Code that grows a graph edge by edge (the random
  generators) builds its own adjacency and freezes it once.
* Vertices are dense integers; name mapping (if any) is the caller's
  concern.  Self-loops and parallel edges are rejected, matching the
  paper's model of simple social graphs.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.utils.validation import check_vertex


class Graph:
    """An immutable undirected simple graph on vertices ``{0, ..., n-1}``.

    Parameters
    ----------
    n:
        Number of vertices.  ``Graph(n)`` is the empty graph; graphs
        with edges come from :meth:`from_edge_array` or
        :meth:`from_edges`.

    Examples
    --------
    >>> g = Graph.from_edges(4, [(0, 1), (2, 1)])
    >>> g.num_edges
    2
    >>> sorted(g.neighbors(1))
    [0, 2]
    >>> g.indptr.tolist(), g.indices.tolist()
    ([0, 1, 3, 4, 4], [1, 0, 2, 1])
    """

    __slots__ = ("_indptr", "_indices")

    def __init__(self, n: int):
        if n < 0:
            raise ValueError(f"number of vertices must be non-negative, got {n}")
        self._indptr, self._indices = read_only(
            np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64)
        )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an iterable of (u, v) pairs.

        Duplicate pairs and (u, v)/(v, u) mirrors are collapsed; self
        loops raise.  See :meth:`from_edge_array`.
        """
        pairs = np.array([(u, v) for u, v in edges], dtype=np.int64)
        return cls.from_edge_array(n, pairs.reshape(-1, 2))

    @classmethod
    def from_edge_array(cls, n: int, edges: np.ndarray) -> "Graph":
        """Build a graph from an ``(m, 2)`` integer edge array.

        Validation, ``(u, v)``/``(v, u)`` normalisation, duplicate
        collapsing and the CSR build are single array passes.  This is
        the one validating constructor.

        Parameters
        ----------
        n:
            Number of vertices.
        edges:
            Integer array of shape ``(m, 2)`` (any endpoint order;
            duplicates and mirrors are collapsed).  Self loops raise.
        """
        edges = np.ascontiguousarray(edges, dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"edges must have shape (m, 2), got {edges.shape}")
        if len(edges) == 0:
            return cls(n)
        if edges.min() < 0 or edges.max() >= n:
            raise ValueError(f"vertex ids must lie in [0, {n})")
        us, vs = edges[:, 0], edges[:, 1]
        if (us == vs).any():
            raise ValueError("self loops are not allowed")
        # Both orientations of every edge as codes ``row·n + neighbour``;
        # sorted and deduplicated, they are the CSR rows in order.
        # (Sort-and-mask: np.unique is far slower on large int64 arrays.)
        n64 = np.int64(n)
        directed = np.sort(np.concatenate([us * n64 + vs, vs * n64 + us]))
        directed = directed[np.append(True, directed[1:] != directed[:-1])]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(directed // n64, minlength=n), out=indptr[1:])
        return cls._from_csr(indptr, directed % n64)

    @classmethod
    def _from_csr(cls, indptr: np.ndarray, indices: np.ndarray) -> "Graph":
        """Zero-validation constructor over arrays the caller vouches for.

        ``indptr``/``indices`` must already be a symmetric ``int64`` CSR
        with sorted, loop-free, duplicate-free rows (e.g. another
        graph's arrays shared with a worker process).  They are frozen
        in place, not copied.
        """
        g = cls.__new__(cls)
        g._indptr, g._indices = read_only(indptr, indices)
        return g

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def indptr(self) -> np.ndarray:
        """Read-only CSR row pointer, length ``n + 1``."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """Read-only CSR neighbour array: row ``v`` is
        ``indices[indptr[v]:indptr[v+1]]``, sorted ascending."""
        return self._indices

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return len(self._indptr) - 1

    @property
    def num_edges(self) -> int:
        """Number of (undirected) edges ``m``."""
        return len(self._indices) // 2

    @property
    def num_pairs(self) -> int:
        """``n·(n-1)/2`` — the size of the pair universe ``V2``."""
        n = self.num_vertices
        return n * (n - 1) // 2

    def _row(self, v: int) -> np.ndarray:
        return self._indices[self._indptr[v] : self._indptr[v + 1]]

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``."""
        v = check_vertex(v, self.num_vertices)
        return int(self._indptr[v + 1] - self._indptr[v])

    def degrees(self) -> np.ndarray:
        """Degree sequence as an ``int64`` array indexed by vertex."""
        return np.diff(self._indptr)

    def neighbors(self, v: int) -> frozenset[int]:
        """Neighbour set of ``v`` as a frozenset."""
        return frozenset(self._row(check_vertex(v, self.num_vertices)).tolist())

    def has_edge(self, u: int, v: int) -> bool:
        """True iff the undirected edge (u, v) exists."""
        u = check_vertex(u, self.num_vertices, "u")
        v = check_vertex(v, self.num_vertices, "v")
        row = self._row(u)
        i = int(np.searchsorted(row, v))
        return i < len(row) and int(row[i]) == v

    def _upper(self) -> tuple[np.ndarray, np.ndarray]:
        """Endpoints ``(us, vs)`` of every edge with ``u < v``, in code order."""
        rows = np.repeat(np.arange(self.num_vertices, dtype=np.int64), self.degrees())
        upper = self._indices > rows
        return rows[upper], self._indices[upper]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate edges as ordered pairs ``(u, v)`` with ``u < v``, sorted."""
        us, vs = self._upper()
        return zip(us.tolist(), vs.tolist())

    def edge_array(self) -> np.ndarray:
        """All edges as a sorted ``(m, 2)`` int64 array with ``u < v`` rows."""
        return np.column_stack(self._upper())

    def edge_codes(self) -> np.ndarray:
        """Edges as sorted scalar codes ``u·n + v`` (``u < v``).

        The flat form lets callers answer "which of these pairs are true
        edges?" for a whole pair array at once via ``np.isin`` or
        ``np.searchsorted`` (used by the Algorithm-2 probability
        assignment step).
        """
        us, vs = self._upper()
        return us * np.int64(self.num_vertices) + vs

    # ------------------------------------------------------------------
    # dunder sugar
    # ------------------------------------------------------------------
    def __contains__(self, edge: tuple[int, int]) -> bool:
        u, v = edge
        return self.has_edge(u, v)

    def __len__(self) -> int:
        return self.num_vertices

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return np.array_equal(self._indptr, other._indptr) and np.array_equal(
            self._indices, other._indices
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n={self.num_vertices}, m={self.num_edges})"


def read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Clear the arrays' write flags in place and return them."""
    for array in arrays:
        array.setflags(write=False)
    return arrays


def pair_index(u: int, v: int, n: int) -> int:
    """Map an unordered pair ``{u, v}`` to a unique index in ``[0, n(n-1)/2)``.

    The mapping enumerates pairs in lexicographic order of ``(min, max)``.
    Used by tests and by brute-force possible-world enumeration.
    """
    u = check_vertex(u, n, "u")
    v = check_vertex(v, n, "v")
    if u == v:
        raise ValueError("pairs must have distinct endpoints")
    if u > v:
        u, v = v, u
    # pairs starting at u' < u: sum_{i<u} (n-1-i); then offset within row
    return u * (n - 1) - u * (u - 1) // 2 + (v - u - 1)
