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

Dispatch: when the statistics mapping is the registry's
:class:`~repro.stats.registry.StatisticFamily` (or ``None``, which
builds one), the ten paper statistics (S_NE … S_CC) are produced by
the batched kernels under the *family's own configuration* —
explicitly passed options must agree or construction fails, so the
kernels can never silently diverge from the family's callables.  Any
other mapping (and any non-paper name inside a family) is treated as
opaque ``Graph → float`` callables, evaluated on one lazily
materialised world at a time (bulk CSR construction, no per-edge
Python).  Distance statistics honour the registry's three backends —
``"anf"`` runs the stacked multi-world diffusion, ``"exact"``/
``"sampled"`` share one BFS histogram per materialised world, exactly
like the registry's ``_HistogramCache``.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping

import numpy as np

from repro.exec.plan import SAMPLE_CHUNK_DEFAULT, ChunkPlan
from repro.graphs.graph import Graph
from repro.obs.metrics import REGISTRY as _OBS
from repro.obs.trace import span
from repro.stats.distance import (
    average_distance,
    connectivity_length,
    diameter,
    distance_histogram,
    effective_diameter,
)
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

_UNSET = object()

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
        ``None`` (build the full Table-4 family from the options below),
        a :class:`~repro.stats.registry.StatisticFamily` (paper-family
        names run on the batched kernels with the family's exact
        configuration), or any other mapping of name → ``Graph → float``
        callable (every entry evaluated per materialised world — no
        kernel substitution, so custom callables are always honoured).
    distance_backend, sample_size, distance_seed:
        Distance-histogram backend configuration, mirroring
        :func:`repro.stats.registry.paper_statistics` (``seed`` there).
        When a ``StatisticFamily`` is supplied these default to *its*
        configuration, and explicitly passed values must agree with it
        (a mismatch would silently change what the statistics mean).
    powerlaw_d_min:
        Tail cut for the S_PL fit (same agreement rule).
    anf_b:
        HyperLogLog register bits for the ``"anf"`` backend; the
        registry family is pinned to the HyperANF default of 6.
    """

    def __init__(
        self,
        statistics: Mapping[str, Callable[[Graph], float]] | None = None,
        *,
        distance_backend=_UNSET,
        sample_size=_UNSET,
        distance_seed=_UNSET,
        anf_b=_UNSET,
        powerlaw_d_min=_UNSET,
    ):
        family = statistics if isinstance(statistics, StatisticFamily) else None

        def resolve(name: str, explicit, family_value, default):
            if explicit is _UNSET:
                return family_value if family is not None else default
            if family is not None and explicit != family_value:
                raise ValueError(
                    f"{name}={explicit!r} conflicts with the supplied "
                    f"statistics family ({name}={family_value!r}); the "
                    "batched kernels would silently diverge from the "
                    "family's callables"
                )
            return explicit

        if family is not None:
            self._backend = resolve(
                "distance_backend", distance_backend, family.distance_backend, None
            )
            self._sample_size = resolve(
                "sample_size", sample_size, family.sample_size, None
            )
            self._distance_seed = resolve(
                "distance_seed", distance_seed, family.seed, None
            )
            self._powerlaw_d_min = resolve(
                "powerlaw_d_min", powerlaw_d_min, family.powerlaw_d_min, None
            )
            self._anf_b = resolve("anf_b", anf_b, 6, 6)
        else:
            self._backend = resolve("distance_backend", distance_backend, None, "anf")
            self._sample_size = resolve("sample_size", sample_size, None, None)
            self._distance_seed = resolve("distance_seed", distance_seed, None, 0)
            self._powerlaw_d_min = resolve(
                "powerlaw_d_min", powerlaw_d_min, None, None
            )
            self._anf_b = resolve("anf_b", anf_b, None, 6)
        if self._backend not in ("exact", "sampled", "anf"):
            raise ValueError(
                f"unknown distance backend {self._backend!r}; "
                "use exact/sampled/anf"
            )
        if statistics is None:
            statistics = paper_statistics(
                distance_backend=self._backend,
                sample_size=self._sample_size,
                seed=self._distance_seed,
                powerlaw_d_min=self._powerlaw_d_min,
            )
            family = statistics
        # Plain mappings get no kernel substitution: whatever callables
        # the caller bound — even under paper-family names — run as-is.
        self._use_kernels = family is not None
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
        Every other name — the degree family, S_CC, the BFS backends and
        opaque callables — is planned by the unpacked keep-matrix bound,
        so the triangle kernel sees whole lane slices.  The structural
        group comes first.  An explicit ``chunk_size`` applies to both.
        """
        anf = [
            name
            for name in names
            if self._use_kernels
            and self._backend == "anf"
            and name in DISTANCE_STATISTIC_NAMES
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
                    anf_b=self._anf_b,
                    chunk_size=chunk_size,
                ),
            )
            for group in (structural, anf)
            if group
        ]

    def spec(self) -> tuple:
        """Picklable resolved configuration (worker-side reconstruction).

        Valid whenever the engine runs the registry family
        (``statistics=None`` or a :class:`StatisticFamily`): a worker
        rebuilding via :meth:`from_spec` gets callables and kernels
        computing exactly what this engine's do.
        """
        return (
            self._backend,
            self._sample_size,
            self._distance_seed,
            self._anf_b,
            self._powerlaw_d_min,
        )

    @classmethod
    def from_spec(cls, spec: tuple) -> "BatchStatisticsEngine":
        backend, sample_size, distance_seed, anf_b, powerlaw_d_min = spec
        return cls(
            None,
            distance_backend=backend,
            sample_size=sample_size,
            distance_seed=distance_seed,
            anf_b=anf_b,
            powerlaw_d_min=powerlaw_d_min,
        )

    def _shardable(self, names) -> bool:
        """Can a worker reproduce this evaluation from :meth:`spec`?

        Requires the kernel path (a registry family) and only
        kernel-served names — opaque ``Graph → float`` callables are
        not reconstructible from a config tuple, so batches carrying
        them evaluate in the parent instead (correct, just serial).
        """
        return (
            self._use_kernels
            and not isinstance(self._distance_seed, np.random.Generator)
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
        kernel_names = BATCHED_STATISTIC_NAMES if self._use_kernels else frozenset()
        degree_names = [n for n in names if n in kernel_names and n in DEGREE_STATISTIC_NAMES]
        distance_names = [n for n in names if n in kernel_names and n in DISTANCE_STATISTIC_NAMES]
        fallback_names = [n for n in names if n not in kernel_names]
        want_cc = "S_CC" in names and self._use_kernels

        degrees = (
            degree_matrix(batch) if degree_names or want_cc else None
        )
        if degree_names:
            out.update(
                degree_statistics_batch(
                    batch, degrees=degrees, powerlaw_d_min=self._powerlaw_d_min
                )
            )
        if want_cc:
            out["S_CC"] = clustering_coefficients_batch(
                batch,
                degrees=degrees,
                triangles=triangle_counts_batch(batch),
            )
        if distance_names:
            if self._backend == "anf":
                out.update(
                    anf_distance_statistics_batch(
                        batch, b=self._anf_b, seed=self._distance_seed
                    )
                )
            else:
                out.update(self._bfs_distance_statistics(batch))

        if fallback_names:
            # One world at a time: every callable measures world w before
            # world w + 1 is built, and w is freed once w + 1 replaces it.
            for name in fallback_names:
                out[name] = np.empty(batch.num_worlds, dtype=np.float64)
            for w, graph in enumerate(batch.graphs()):
                for name in fallback_names:
                    out[name][w] = float(self._statistics[name](graph))
        return {name: out[name] for name in names}

    def _bfs_distance_statistics(self, batch: WorldBatch) -> dict[str, np.ndarray]:
        """The exact/sampled backends: one shared histogram per world.

        Mirrors the sequential registry's ``_HistogramCache`` — a fresh
        BFS histogram per world, reused by all four distance statistics,
        with the sampled backend re-seeding identically per world so the
        source subset (the estimator noise) is held fixed across worlds.
        """
        W = batch.num_worlds
        out = {
            name: np.empty(W, dtype=np.float64) for name in DISTANCE_STATISTIC_NAMES
        }
        for w in range(W):
            graph = batch.world_graph(w)
            if self._backend == "exact":
                hist = distance_histogram(graph)
            else:
                size = self._sample_size or min(graph.num_vertices, 256)
                hist = distance_histogram(
                    graph, sample_size=size, seed=self._distance_seed
                )
            out["S_APD"][w] = average_distance(hist)
            out["S_DiamLB"][w] = diameter(hist)
            out["S_EDiam"][w] = effective_diameter(hist)
            out["S_CL"][w] = connectivity_length(hist)
        return out


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
    distance_backend, sample_size, distance_seed, anf_b, powerlaw_d_min:
        Engine configuration (see :class:`BatchStatisticsEngine`).
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
        **engine_options,
    ):
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self._engine = BatchStatisticsEngine(statistics, **engine_options)
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
