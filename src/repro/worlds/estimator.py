"""Chunked, streaming Table-4/5/6 estimation over batched possible worlds.

This is the one code path that averages a statistic over possible
worlds (Equation 9).  Two layers live here:

* :class:`BatchStatisticsEngine` — the batch-to-values core: given any
  :class:`~repro.worlds.batch.WorldBatch` (sampled from an uncertain
  graph *or* built from randomized baseline releases by
  :mod:`repro.worlds.releases`), produce per-world values of a statistic
  family through the vectorised kernels of
  :mod:`repro.worlds.stats_batch` and :mod:`repro.worlds.anf_batch`.
* :class:`WorldStatisticsEstimator` — samples worlds from an uncertain
  graph and returns one :class:`~repro.stats.sampling.SampleSummary`
  per statistic.  Worlds are drawn and evaluated a chunk at a time
  through the engine, so memory stays bounded by the chunk size.  The
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

from repro.exec.plan import SAMPLE_CHUNK_DEFAULT, ChunkPlan
from repro.graphs.graph import Graph
from repro.obs.metrics import REGISTRY as _OBS
from repro.obs.trace import span
from repro.stats.registry import StatisticFamily, paper_statistics
from repro.stats.sampling import SampleSummary
from repro.uncertain.graph import UncertainGraph
from repro.utils.rng import as_rng
from repro.worlds.anf_batch import (
    DISTANCE_STATISTIC_NAMES,
    anf_distance_statistics_batch,
)
from repro.worlds.batch import WorldBatch
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

# Chunking telemetry (repro.obs): how the engine actually sliced its
# work — auto chunk sizes chosen, worlds evaluated per slice, streamed
# release batches consumed.
_EVAL_CHUNKS = _OBS.counter("worlds.eval.chunks")
_EVAL_WORLDS = _OBS.counter("worlds.eval.worlds")
_EVAL_CHUNK_HIST = _OBS.histogram("worlds.eval.chunk_size")
_STREAM_BATCHES = _OBS.counter("worlds.eval.stream_batches")


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

    def plan(
        self, batch: WorldBatch, names: list[str], *, chunk_size: int | None = None
    ) -> list[tuple[list[str], ChunkPlan]]:
        """The kernel groups of ``names``, each with its world chunk plan.

        Distance names that run on the stacked ANF kernel keep slices
        small enough for the ``(W·n, 2^b)`` register stack to stay
        cache-resident (one world per slice once ``n`` passes 16,384).
        Every other name — the degree family, S_CC, the family's BFS
        distance callables and opaque callables — is planned by the
        unpacked keep-matrix bound, so the triangle kernel sees whole
        lane slices.  The structural group comes first.  An explicit
        ``chunk_size`` applies to both.
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
                ChunkPlan.worlds(
                    batch.num_worlds,
                    num_vertices=batch.num_vertices,
                    num_candidate_pairs=batch.num_candidate_pairs,
                    anf=group is anf,
                    chunk_size=chunk_size,
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
        chunk_size: int | None = None,
    ) -> dict[str, np.ndarray]:
        """Per-world values of every requested statistic for one batch,
        as one ``(W,)`` float64 vector per name.

        Large batches are evaluated in world slices (worlds never
        interact, so slicing is value-preserving).  The chunk rule is
        set per kernel group (:meth:`plan`): names on the stacked ANF
        diffusion get slices whose ``(W·n, 2^b)`` register stack stays
        cache-resident — on big graphs one huge stacked diffusion is
        memory-bandwidth-bound and measurably slower than a handful of
        L2-sized ones — while the degree family, S_CC and everything
        else get slices bounded by the transient unpacked keep matrix,
        so large ``n`` never forces one-world triangle slices.
        ``chunk_size`` overrides both bounds; results are identical for
        every chunking.
        """
        if names is None:
            names = list(self._statistics)
        W = batch.num_worlds
        _EVAL_WORLDS.add(W)
        values = {name: np.empty(W, dtype=np.float64) for name in names}
        for group, plan in self.plan(batch, names, chunk_size=chunk_size):
            for chunk in plan:
                sub = batch if chunk.count == W else batch.slice(chunk.lo, chunk.hi)
                out = self._evaluate_chunk(sub, group)
                for name in group:
                    values[name][chunk.lo : chunk.hi] = out[name]
        return values

    def evaluate_stream(
        self,
        batches,
        names: list[str] | None = None,
        *,
        chunk_size: int | None = None,
        executor=None,
    ) -> dict[str, np.ndarray]:
        """Per-world values over an *iterable* of batches, concatenated.

        The memory-bounded companion of :meth:`evaluate`: each batch is
        evaluated (and its union edge structure materialised) only while
        it is the current element, so feeding the generator from
        :func:`repro.worlds.releases.stream_releases` runs high-``p``
        perturbation baselines without ever holding the full
        cross-release union edge list.  Worlds never interact, so the
        concatenated values equal one monolithic :meth:`evaluate` over
        all worlds (pinned by ``tests/worlds/test_releases.py``).

        Parameters
        ----------
        batches:
            Iterable of :class:`WorldBatch` (e.g. a ``stream_releases``
            generator).  Consumed once.
        names, chunk_size:
            As for :meth:`evaluate`.
        executor:
            Optional :class:`~repro.exec.executor.ChunkExecutor`.  With
            a process backend, batches are *drawn* in the parent (so
            the RNG stream is consumed exactly as the serial path
            consumes it) and *evaluated* in workers, a bounded wave at
            a time — concatenated values stay bit-identical to the
            serial loop because worlds never interact and evaluation is
            chunking-invariant (both pinned by tests).
        """
        if names is None:
            names = list(self._statistics)
        parallel = (
            executor is not None
            and getattr(executor, "backend", "serial") == "process"
            and self._shardable(names)
        )
        parts: dict[str, list[np.ndarray]] = {name: [] for name in names}
        if parallel:
            spec = self.spec()
            wave_size = max(1, 2 * executor.workers)
            wave: list = []

            def flush():
                for values in executor.map(_eval_batch_task, wave):
                    for name in names:
                        parts[name].append(values[name])
                wave.clear()

            for batch in batches:
                _STREAM_BATCHES.add(1)
                wave.append(
                    (
                        spec,
                        list(names),
                        batch.packed_bits,
                        batch._us,
                        batch._vs,
                        batch.num_vertices,
                        batch.num_candidate_pairs,
                        chunk_size,
                    )
                )
                if len(wave) >= wave_size:
                    flush()
            flush()
        else:
            for batch in batches:
                _STREAM_BATCHES.add(1)
                chunk = self.evaluate(batch, names, chunk_size=chunk_size)
                for name in names:
                    parts[name].append(chunk[name])
        return {
            name: (
                np.concatenate(parts[name])
                if parts[name]
                else np.empty(0, dtype=np.float64)
            )
            for name in names
        }

    def _evaluate_chunk(
        self, batch: WorldBatch, names: list[str]
    ) -> dict[str, np.ndarray]:
        """One un-sliced evaluation pass over a chunk (see :meth:`evaluate`)."""
        _EVAL_CHUNKS.add(1)
        _EVAL_CHUNK_HIST.observe(batch.num_worlds)
        with span("worlds.evaluate", worlds=batch.num_worlds, statistics=len(names)):
            return self._evaluate_one(batch, names)

    def _evaluate_one(
        self, batch: WorldBatch, names: list[str]
    ) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        kernel_names = self._kernel_names
        degree_names = [n for n in names if n in kernel_names and n in DEGREE_STATISTIC_NAMES]
        distance_names = [n for n in names if n in kernel_names and n in DISTANCE_STATISTIC_NAMES]
        fallback_names = [n for n in names if n not in kernel_names]
        want_cc = "S_CC" in names and "S_CC" in kernel_names

        degrees = (
            degree_matrix(batch) if degree_names or want_cc else None
        )
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
# worker-side task functions (module-level: shipped by reference)
# ----------------------------------------------------------------------
#: Worker-local engine memo — a pool worker serves many chunks of the
#: same run, and the engine (family callables, histogram cache) is
#: reconstructible from its spec alone.
_ENGINE_MEMO: dict[tuple, BatchStatisticsEngine] = {}


def _engine_from_spec(spec: tuple) -> BatchStatisticsEngine:
    engine = _ENGINE_MEMO.get(spec)
    if engine is None:
        engine = _ENGINE_MEMO[spec] = BatchStatisticsEngine.from_spec(spec)
    return engine


def _eval_batch_task(arg, shared):
    """Evaluate one self-contained batch (stream path: arrays pickled)."""
    spec, names, packed, us, vs, n, num_pairs, chunk_size = arg
    batch = WorldBatch(n, us, vs, packed, num_pairs)
    return _engine_from_spec(spec).evaluate(batch, names, chunk_size=chunk_size)


def _eval_worlds_task(arg, shared):
    """Evaluate one kernel group's names on one world chunk, against the
    shared candidate arrays.

    ``shared`` carries the endpoint arrays and the parent's sorted
    union incidence (built once, exported read-only), so the worker
    pays neither a pickle of the pair set nor a per-process lexsort.
    """
    from repro.worlds.batch import _UnionIncidence

    spec, names, packed, n, num_pairs = arg
    batch = WorldBatch(n, shared["us"], shared["vs"], packed, num_pairs)
    batch._union_cell[0] = _UnionIncidence.from_sorted(
        shared["union_heads"], shared["union_tails"], shared["union_pair"]
    )
    return _engine_from_spec(spec)._evaluate_chunk(batch, names)


class WorldStatisticsEstimator:
    """Evaluate a family of statistics over sampled possible worlds.

    Parameters
    ----------
    uncertain:
        The published uncertain graph.
    statistics:
        As for :class:`BatchStatisticsEngine`.
    chunk_size:
        Worlds sampled and evaluated per pass — the memory bound.  The
        RNG stream is consumed identically for every chunking, so
        results do not depend on this knob.
    executor:
        Optional :class:`~repro.exec.executor.ChunkExecutor`.  With a
        process backend, the parent draws every world's keep bits (the
        exact serial stream) and workers evaluate world chunks against
        shared-memory candidate arrays; per-world values are
        bit-identical to the serial loop (pinned by ``tests/exec``).

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
        chunk_size: int = SAMPLE_CHUNK_DEFAULT,
        executor=None,
    ):
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self._engine = BatchStatisticsEngine(statistics)
        self._uncertain = uncertain
        self._statistics = self._engine.statistics
        self._chunk_size = chunk_size
        self._executor = executor

    # ------------------------------------------------------------------
    def run(self, *, worlds: int, seed=None) -> dict[str, SampleSummary]:
        """Sample ``worlds`` (the sample size ``r``) possible worlds and
        summarise every statistic over them."""
        if worlds < 1:
            raise ValueError(f"need at least one world, got {worlds}")
        rng = as_rng(seed)
        names = list(self._statistics)
        executor = self._executor
        if (
            executor is not None
            and getattr(executor, "backend", "serial") == "process"
            and self._engine._shardable(names)
        ):
            return self._run_sharded(worlds, rng, names, executor)
        values = {name: np.empty(worlds, dtype=np.float64) for name in names}
        done = 0
        # One union-incidence cell threaded across every chunk: batches
        # sampled from one uncertain graph share the candidate pair
        # arrays (pair_arrays is cached), so the incidence lexsort is
        # paid once per run, not once per 32-world chunk.
        union_cell: list = [None]
        with span("worlds.run", worlds=worlds, chunk_size=self._chunk_size):
            while done < worlds:
                count = min(self._chunk_size, worlds - done)
                batch = WorldBatch.sample(
                    self._uncertain, count, seed=rng, union_cell=union_cell
                )
                chunk = self._engine.evaluate(batch, names)
                for name in names:
                    values[name][done : done + count] = chunk[name]
                done += count
        return {
            name: SampleSummary(name=name, values=values[name]) for name in names
        }

    def _run_sharded(
        self, worlds: int, rng, names: list[str], executor
    ) -> dict[str, SampleSummary]:
        """The process-backend path: parent samples, workers evaluate.

        The parent draws *all* packed keep bits in one pass — C-order
        row fill means the stream positions equal the serial chunked
        loop's — builds the sorted union incidence once, exports both
        to shared memory, and dispatches one task per chunk of each
        kernel group's plan (:meth:`BatchStatisticsEngine.plan`), the
        structural tasks first so they overlap the ANF ones.  Because
        evaluation is bitwise chunking-invariant and every task writes
        its own worlds and names, the assembled values equal the serial
        loop's bit for bit.
        """
        engine = self._engine
        batch = WorldBatch.sample(self._uncertain, worlds, seed=rng)
        union = batch.union_incidence()
        spec = engine.spec()
        packed = batch.packed_bits
        work = [
            (group, chunk)
            for group, plan in engine.plan(batch, names)
            for chunk in plan
        ]
        tasks = [
            (spec, group, packed[c.lo : c.hi], batch.num_vertices,
             batch.num_candidate_pairs)
            for group, c in work
        ]
        shared = {
            "us": batch._us,
            "vs": batch._vs,
            "union_heads": union.heads,
            "union_tails": union.tails,
            "union_pair": union.pair,
        }
        _EVAL_WORLDS.add(worlds)
        with span(
            "worlds.run",
            worlds=worlds,
            tasks=len(tasks),
            workers=executor.workers,
        ):
            chunks = executor.map(_eval_worlds_task, tasks, shared=shared)
        values = {name: np.empty(worlds, dtype=np.float64) for name in names}
        for (group, c), out in zip(work, chunks):
            for name in group:
                values[name][c.lo : c.hi] = out[name]
        return {
            name: SampleSummary(name=name, values=values[name]) for name in names
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
