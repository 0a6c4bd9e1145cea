"""Named registry of the paper's ten scalar statistics (Tables 4–6 columns).

``paper_statistics()`` returns the exact column family of Table 4 —
S_NE, S_AD, S_MD, S_DV, S_PL, S_APD, S_DiamLB, S_EDiam, S_CL, S_CC —
as ``Graph → float`` callables, with the distance-based entries sharing
one histogram computation per graph via a tiny per-graph cache (the
four distance statistics would otherwise re-run BFS/ANF four times per
sampled world).

The ``distance_backend`` choice mirrors the paper's §6.3 discussion:

* ``"exact"``    — all-sources BFS (small graphs, tests);
* ``"sampled"``  — BFS from a random subset of sources [6, 18];
* ``"anf"``      — HyperANF diffusion [3], the paper's choice for its
  large graphs (S_Diam then becomes the lower bound S_DiamLB, exactly as
  in the paper).
"""

from __future__ import annotations

import weakref

from repro.graphs.graph import Graph
from repro.graphs.triangles import clustering_coefficient
from repro.stats.degree import (
    average_degree,
    degree_variance,
    max_degree,
    num_edges,
    powerlaw_exponent,
)
from repro.stats.distance import (
    DistanceHistogram,
    average_distance,
    connectivity_length,
    diameter,
    distance_histogram,
    effective_diameter,
)

#: Order of the scalar columns as printed in the paper's Table 4.
PAPER_STATISTIC_NAMES = (
    "S_NE",
    "S_AD",
    "S_MD",
    "S_DV",
    "S_PL",
    "S_APD",
    "S_DiamLB",
    "S_EDiam",
    "S_CL",
    "S_CC",
)


#: The distance-histogram backends, in the order of the module docstring.
DISTANCE_BACKENDS = ("exact", "sampled", "anf")


class StatisticFamily(dict):
    """A statistics mapping that remembers how it was configured.

    ``paper_statistics`` returns this instead of a plain dict.  Its
    ``(distance_backend, sample_size, seed)`` is the whole configuration
    of the Table-4 family: the batched world engine
    (:class:`repro.worlds.estimator.BatchStatisticsEngine`) reads it to
    run its kernels exactly as the family's closures compute, and
    rebuilds the family from it in worker processes.  For any other
    mapping the engine treats every entry as an opaque ``Graph → float``
    callable.
    """

    def __init__(
        self, entries, *, distance_backend: str, sample_size: int | None, seed
    ):
        super().__init__(entries)
        self.distance_backend = distance_backend
        self.sample_size = sample_size
        self.seed = seed


def _check_backend(backend: str) -> None:
    if backend not in DISTANCE_BACKENDS:
        raise ValueError(
            f"unknown distance backend {backend!r}; use exact/sampled/anf"
        )


def backend_histogram(
    graph: Graph, backend: str, *, sample_size: int | None = None, seed=0
) -> DistanceHistogram:
    """The distance histogram of ``graph`` under one of :data:`DISTANCE_BACKENDS`.

    ``"sampled"`` runs BFS from ``sample_size`` sources (default
    ``min(n, 256)``); ``"anf"`` runs HyperANF with ``b = 6``.  ``seed``
    drives both and is ignored by ``"exact"``.
    """
    _check_backend(backend)
    if backend == "exact":
        return distance_histogram(graph)
    if backend == "sampled":
        size = sample_size or min(graph.num_vertices, 256)
        return distance_histogram(graph, sample_size=size, seed=seed)
    # imported lazily: repro.anf depends on repro.stats.distance, so a
    # module-level import here would close a package cycle
    from repro.anf.distance_stats import anf_distance_histogram

    return anf_distance_histogram(graph, seed=seed)


class _HistogramCache:
    """Share one distance histogram among the distance statistics.

    A single slot keyed on the graph's two read-only CSR arrays, held by
    weak reference.  A graph's content is a function of those arrays,
    and a dead reference matches nothing, so a graph built where a freed
    world used to live never receives that world's histogram; the slot
    does not keep a world alive either.
    """

    def __init__(self, backend: str, sample_size: int | None, seed):
        self._backend = backend
        self._sample_size = sample_size
        self._seed = seed
        self._refs: tuple[weakref.ref, weakref.ref] | None = None
        self._hist: DistanceHistogram | None = None

    def get(self, graph: Graph) -> DistanceHistogram:
        """Histogram for ``graph``, computed once per graph."""
        refs = self._refs
        if (
            refs is None
            or refs[0]() is not graph.indptr
            or refs[1]() is not graph.indices
        ):
            self._hist = backend_histogram(
                graph, self._backend, sample_size=self._sample_size, seed=self._seed
            )
            self._refs = (weakref.ref(graph.indptr), weakref.ref(graph.indices))
        return self._hist


def paper_statistics(
    *,
    distance_backend: str = "anf",
    sample_size: int | None = None,
    seed=0,
) -> StatisticFamily:
    """Build the Table-4 statistic family.

    Parameters
    ----------
    distance_backend:
        ``"exact"``, ``"sampled"`` or ``"anf"`` (see module docstring);
        anything else raises ``ValueError``.
    sample_size:
        Source count for the ``"sampled"`` backend.
    seed:
        Seed for sampled/ANF backends (kept fixed across worlds so that
        world-to-world variation reflects the uncertain graph, not the
        estimator).

    Returns
    -------
    StatisticFamily
        Statistic name → callable, in Table-4 column order, tagged with
        the configuration so batched engines can reproduce it exactly.
        S_PL fits the tail from ``max(2, round(S_AD))`` and HyperANF
        uses ``b = 6``.
    """
    _check_backend(distance_backend)
    cache = _HistogramCache(distance_backend, sample_size, seed)

    return StatisticFamily(
        {
            "S_NE": num_edges,
            "S_AD": average_degree,
            "S_MD": max_degree,
            "S_DV": degree_variance,
            "S_PL": powerlaw_exponent,
            "S_APD": lambda g: average_distance(cache.get(g)),
            "S_DiamLB": lambda g: diameter(cache.get(g)),
            "S_EDiam": lambda g: effective_diameter(cache.get(g)),
            "S_CL": lambda g: connectivity_length(cache.get(g)),
            "S_CC": clustering_coefficient,
        },
        distance_backend=distance_backend,
        sample_size=sample_size,
        seed=seed,
    )
