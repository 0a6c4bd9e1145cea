"""Table-4/5/6 estimation over batched possible worlds.

This is the one code path that averages a statistic over possible
worlds (Equation 9).  Two layers live here:

* :class:`BatchStatisticsEngine` — the batch-to-values core: given any
  :class:`~repro.worlds.batch.WorldBatch` (sampled from an uncertain
  graph *or* built from randomized baseline releases by
  :mod:`repro.worlds.releases`), produce per-world values of a statistic
  family through the vectorised kernels of
  :mod:`repro.worlds.stats_batch` and :mod:`repro.worlds.anf_batch`.
  :meth:`~BatchStatisticsEngine.evaluate` is the one evaluation entry:
  it cuts the batch into world slices per kernel group and runs them on
  a process pool (:func:`_eval_worlds_task`, the one worker task) or in
  this process — one decision, in one place.
* :class:`WorldStatisticsEstimator` — samples all worlds of an
  uncertain graph as one batch, evaluates it, and returns one
  :class:`~repro.stats.sampling.SampleSummary` per statistic.  The
  values match a world-by-world loop over
  :class:`~repro.uncertain.sampling.WorldSampler` with the same seed
  (pinned at ≤1e-9 against the sequential oracle in the tests).

Dispatch: the statistics mapping's type is the only configuration.  A
:class:`~repro.stats.registry.StatisticFamily` (or ``None``, the
default :func:`~repro.stats.registry.paper_statistics` family) carries
its ``(distance_backend, sample_size, seed)``; the engine runs the
degree family and S_CC on the batched kernels, and the four distance
statistics on the stacked multi-world HyperANF when the backend is
``"anf"``.  On ``"exact"``/``"sampled"`` the distance names run the
family's own callables, one materialised world at a time, and share
one BFS histogram per world through the family's histogram cache.  Any
other mapping (and any non-paper name inside a family) is treated as
opaque ``Graph → float`` callables, evaluated on one lazily
materialised world at a time (bulk CSR construction, no per-edge
Python).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping

import numpy as np

from repro.exec.plan import world_eval_chunk_size
from repro.graphs.graph import Graph
from repro.obs.metrics import REGISTRY as _OBS
from repro.obs.trace import span
from repro.stats.registry import StatisticFamily, paper_statistics
from repro.stats.sampling import SampleSummary
from repro.uncertain.graph import UncertainGraph
from repro.worlds.anf_batch import (
    DISTANCE_STATISTIC_NAMES,
    anf_distance_statistics_batch,
)
from repro.worlds.batch import WorldBatch, _UnionIncidence
from repro.worlds.stats_batch import (
    clustering_coefficients_batch,
    degree_matrix,
    degree_statistics_batch,
    triangle_counts_batch,
)

#: Names the batched kernels compute natively (degree family + S_CC).
DEGREE_STATISTIC_NAMES = ("S_NE", "S_AD", "S_MD", "S_DV", "S_PL")

#: Every statistic with a dedicated batched kernel.
BATCHED_STATISTIC_NAMES = frozenset(
    DEGREE_STATISTIC_NAMES + DISTANCE_STATISTIC_NAMES + ("S_CC",)
)

# Slicing telemetry (repro.obs): how the engine actually sliced its
# work — worlds evaluated, slices run and worlds per slice.
_EVAL_CHUNKS = _OBS.counter("worlds.eval.chunks")
_EVAL_WORLDS = _OBS.counter("worlds.eval.worlds")
_EVAL_CHUNK_HIST = _OBS.histogram("worlds.eval.chunk_size")


class BatchStatisticsEngine:
    """Kernel dispatch + per-world evaluation for any :class:`WorldBatch`.

    Parameters
    ----------
    statistics:
        ``None`` (the default :func:`~repro.stats.registry.paper_statistics`
        family), a :class:`~repro.stats.registry.StatisticFamily` (its
        configuration is the engine's: the paper names run on the
        batched kernels, or on the family's own callables where no
        kernel serves its distance backend), or any other mapping of
        name → ``Graph → float`` callable (every entry evaluated per
        materialised world — no kernel substitution, so custom callables
        are always honoured).
    """

    def __init__(
        self, statistics: Mapping[str, Callable[[Graph], float]] | None = None
    ):
        if statistics is None:
            statistics = paper_statistics()
        family = statistics if isinstance(statistics, StatisticFamily) else None
        self._family = family
        # Plain mappings get no kernel substitution: whatever callables
        # the caller bound — even under paper-family names — run as-is.
        if family is None:
            self._kernel_names = frozenset()
        elif family.distance_backend == "anf":
            self._kernel_names = BATCHED_STATISTIC_NAMES
        else:
            self._kernel_names = BATCHED_STATISTIC_NAMES - set(
                DISTANCE_STATISTIC_NAMES
            )
        self._statistics = dict(statistics)

    @property
    def statistics(self) -> dict[str, Callable[[Graph], float]]:
        """The resolved name → callable mapping (kernel names included)."""
        return self._statistics

    def plan(self, batch: WorldBatch, names: list[str]) -> list[tuple[list[str], int]]:
        """The kernel groups of ``names``, each with its worlds per slice.

        Distance names that run on the stacked ANF kernel keep slices
        small enough for the ``(W·n, 2^b)`` register stack to stay
        cache-resident (one world per slice once ``n`` passes 16,384).
        Every other name — the degree family, S_CC, the family's BFS
        distance callables and opaque callables — is sized by the
        unpacked keep-matrix bound, so the triangle kernel sees whole
        lane slices.  The structural group comes first.
        """
        anf = [
            name
            for name in names
            if name in self._kernel_names and name in DISTANCE_STATISTIC_NAMES
        ]
        structural = [name for name in names if name not in anf]
        return [
            (
                group,
                world_eval_chunk_size(
                    batch.num_vertices, batch.num_candidate_pairs, anf=group is anf
                ),
            )
            for group in (structural, anf)
            if group
        ]

    def spec(self) -> tuple:
        """The family's ``(distance_backend, sample_size, seed)``.

        Valid whenever the engine runs the registry family
        (``statistics=None`` or a :class:`StatisticFamily`): a worker
        rebuilding via :meth:`from_spec` gets callables and kernels
        computing exactly what this engine's do.
        """
        family = self._family
        return (family.distance_backend, family.sample_size, family.seed)

    @classmethod
    def from_spec(cls, spec: tuple) -> "BatchStatisticsEngine":
        backend, sample_size, seed = spec
        return cls(
            paper_statistics(
                distance_backend=backend, sample_size=sample_size, seed=seed
            )
        )

    def _shardable(self, names) -> bool:
        """Can a worker reproduce this evaluation from :meth:`spec`?

        Requires a registry family with a plain seed and only its own
        paper names — opaque ``Graph → float`` callables are not
        reconstructible from a config tuple, so batches carrying them
        evaluate in the parent instead (correct, just serial).
        """
        return (
            self._family is not None
            and not isinstance(self._family.seed, np.random.Generator)
            and all(name in BATCHED_STATISTIC_NAMES for name in names)
        )

    # ------------------------------------------------------------------
    def evaluate(
        self,
        batch: WorldBatch,
        names: list[str] | None = None,
        *,
        executor=None,
    ) -> dict[str, np.ndarray]:
        """Per-world values of every requested statistic for one batch,
        as one ``(W,)`` float64 vector per name.

        The batch is evaluated in world slices, sized per kernel group
        (:meth:`plan`): names on the stacked ANF diffusion get slices
        whose ``(W·n, 2^b)`` register stack stays cache-resident — on
        big graphs one huge stacked diffusion is memory-bandwidth-bound
        and measurably slower than a handful of L2-sized ones — while
        the degree family, S_CC and everything else get slices bounded
        by the transient unpacked keep matrix, so large ``n`` never
        forces one-world triangle slices.  Worlds never interact, so
        every slicing gives the same values bit for bit.

        Parameters
        ----------
        batch:
            The worlds to evaluate.
        names:
            Statistic names (default: every name of the engine).
        executor:
            Optional :class:`~repro.exec.executor.ChunkExecutor`.  With a
            process backend and a family a worker can rebuild
            (:meth:`_shardable`), each slice is one pool task against
            the batch's candidate arrays and sorted union incidence,
            exported once to shared memory; the structural slices come
            first so they overlap the ANF ones.  Otherwise — no
            executor, the serial backend, or opaque callables — the
            slices run in this process.  The values are bit-identical
            either way (pinned by ``tests/exec``).
        """
        if names is None:
            names = list(self._statistics)
        W = batch.num_worlds
        _EVAL_WORLDS.add(W)
        slices = [
            (group, lo, min(lo + size, W))
            for group, size in self.plan(batch, names)
            for lo in range(0, W, size)
        ]
        if (
            executor is not None
            and executor.backend == "process"
            and self._shardable(names)
        ):
            union = batch.union_incidence()
            spec = self.spec()
            tasks = [
                (spec, group, batch.packed_bits[lo:hi], batch.num_vertices,
                 batch.num_candidate_pairs)
                for group, lo, hi in slices
            ]
            shared = {
                "us": batch._us,
                "vs": batch._vs,
                "union_heads": union.heads,
                "union_tails": union.tails,
                "union_pair": union.pair,
            }
            outs = executor.map(_eval_worlds_task, tasks, shared=shared)
        else:
            outs = [
                self._evaluate_slice(
                    batch if hi - lo == W else batch.slice(lo, hi), group
                )
                for group, lo, hi in slices
            ]
        values = {name: np.empty(W, dtype=np.float64) for name in names}
        for (group, lo, hi), out in zip(slices, outs):
            for name in group:
                values[name][lo:hi] = out[name]
        return values

    def _evaluate_slice(
        self, batch: WorldBatch, names: list[str]
    ) -> dict[str, np.ndarray]:
        """One evaluation pass over a world slice (see :meth:`evaluate`)."""
        _EVAL_CHUNKS.add(1)
        _EVAL_CHUNK_HIST.observe(batch.num_worlds)
        with span("worlds.evaluate", worlds=batch.num_worlds, statistics=len(names)):
            out: dict[str, np.ndarray] = {}
            kernel = [n for n in names if n in self._kernel_names]
            degree_names = [n for n in kernel if n in DEGREE_STATISTIC_NAMES]
            distance_names = [n for n in kernel if n in DISTANCE_STATISTIC_NAMES]
            fallback_names = [n for n in names if n not in self._kernel_names]
            want_cc = "S_CC" in kernel

            degrees = degree_matrix(batch) if degree_names or want_cc else None
            if degree_names:
                out.update(degree_statistics_batch(batch, degrees=degrees))
            if want_cc:
                out["S_CC"] = clustering_coefficients_batch(
                    batch,
                    degrees=degrees,
                    triangles=triangle_counts_batch(batch),
                )
            if distance_names:
                out.update(anf_distance_statistics_batch(batch, seed=self._family.seed))

            if fallback_names:
                # One world at a time: every callable measures world w before
                # world w + 1 is built, and w is freed once w + 1 replaces it.
                for name in fallback_names:
                    out[name] = np.empty(batch.num_worlds, dtype=np.float64)
                for w, graph in enumerate(batch.graphs()):
                    for name in fallback_names:
                        out[name][w] = float(self._statistics[name](graph))
            return {name: out[name] for name in names}


# ----------------------------------------------------------------------
# the worker-side task (module-level: shipped by reference)
# ----------------------------------------------------------------------
#: Worker-local engine memo — a pool worker serves many slices of the
#: same run, and the engine (family callables, histogram cache) is
#: reconstructible from its spec alone.
_ENGINE_MEMO: dict[tuple, BatchStatisticsEngine] = {}


def _engine_from_spec(spec: tuple) -> BatchStatisticsEngine:
    engine = _ENGINE_MEMO.get(spec)
    if engine is None:
        engine = _ENGINE_MEMO[spec] = BatchStatisticsEngine.from_spec(spec)
    return engine


def _eval_worlds_task(arg, shared):
    """Evaluate one kernel group's names on one world slice, against the
    shared candidate arrays.

    ``shared`` carries the endpoint arrays and the parent's sorted
    union incidence (built once, exported read-only), so the worker
    pays neither a pickle of the pair set nor a per-process lexsort.
    """
    spec, names, packed, n, num_pairs = arg
    batch = WorldBatch(n, shared["us"], shared["vs"], packed, num_pairs)
    batch._union_cell[0] = _UnionIncidence.from_sorted(
        shared["union_heads"], shared["union_tails"], shared["union_pair"]
    )
    return _engine_from_spec(spec)._evaluate_slice(batch, names)


class WorldStatisticsEstimator:
    """Evaluate a family of statistics over sampled possible worlds.

    Parameters
    ----------
    uncertain:
        The published uncertain graph.
    statistics:
        As for :class:`BatchStatisticsEngine`.
    executor:
        As for :meth:`BatchStatisticsEngine.evaluate`.  The parent
        always draws every world's keep bits, so the RNG stream is the
        serial one whichever backend evaluates the slices.

    Examples
    --------
    >>> from repro.uncertain import UncertainGraph
    >>> from repro.stats.degree import average_degree
    >>> ug = UncertainGraph.from_pairs(4, [(0, 1, 0.5), (2, 3, 1.0)])
    >>> est = WorldStatisticsEstimator(ug, {"S_AD": average_degree})
    >>> summaries = est.run(worlds=64, seed=0)
    >>> 0.5 < summaries["S_AD"].mean < 1.0   # E[S_AD] = 2*(1.5)/4 = 0.75
    True
    """

    def __init__(
        self,
        uncertain: UncertainGraph,
        statistics: Mapping[str, Callable[[Graph], float]] | None = None,
        *,
        executor=None,
    ):
        self._engine = BatchStatisticsEngine(statistics)
        self._uncertain = uncertain
        self._executor = executor

    # ------------------------------------------------------------------
    def run(self, *, worlds: int, seed=None) -> dict[str, SampleSummary]:
        """Sample ``worlds`` (the sample size ``r``) possible worlds and
        summarise every statistic over them.

        All worlds come from one :meth:`WorldBatch.sample` pass, whose
        packed keep bits take ``worlds·⌈m/8⌉`` bytes, and one
        :meth:`BatchStatisticsEngine.evaluate` call.
        """
        if worlds < 1:
            raise ValueError(f"need at least one world, got {worlds}")
        with span("worlds.run", worlds=worlds):
            batch = WorldBatch.sample(self._uncertain, worlds, seed=seed)
            values = self._engine.evaluate(batch, executor=self._executor)
        return {
            name: SampleSummary(name=name, values=column)
            for name, column in values.items()
        }


def estimate_statistic(
    uncertain: UncertainGraph,
    statistic: Callable[[Graph], float],
    *,
    worlds: int,
    seed=None,
    name: str = "S",
) -> SampleSummary:
    """One-statistic convenience wrapper around the estimator."""
    estimator = WorldStatisticsEstimator(uncertain, {name: statistic})
    return estimator.run(worlds=worlds, seed=seed)[name]
