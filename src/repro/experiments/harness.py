"""Experiment runners: one function per paper table.

``run_obfuscation_sweep`` executes Algorithm 1 over the (dataset, k, ε)
grid once; Tables 2–5 and Figures 2–3 are all views over that single
sweep, exactly as in the paper (its Tables 2 and 3 report σ and
throughput "of the same experiments").
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass

import numpy as np

from repro.core.search import obfuscate_with_fallback
from repro.core.types import ObfuscationParams, ObfuscationResult
from repro.exec.executor import TaskFailure
from repro.experiments.config import ExperimentConfig
from repro.graphs.graph import Graph
from repro.obs.trace import span
from repro.stats.registry import PAPER_STATISTIC_NAMES, paper_statistics
from repro.stats.sampling import SampleSummary
from repro.uncertain.graph import UncertainGraph
from repro.utils.rng import spawn_seed_sequences
from repro.worlds.estimator import WorldStatisticsEstimator

_log = logging.getLogger("repro.experiments.harness")


@dataclass
class SweepEntry:
    """One (dataset, k, ε) cell of the obfuscation sweep."""

    dataset: str
    k: int
    paper_eps: float
    eps_used: float
    result: ObfuscationResult
    graph: Graph

    @property
    def c_used(self) -> float:
        """The candidate-set multiplier that succeeded (2, or 3 on fallback)."""
        return self.result.params.c


#: Worker-local graph cache: one entry, keyed on the live shared dict
#: (a new ``map`` call exports a new pack, hence a new dict object).
_GRAPH_MEMO: tuple | None = None


def _shared_graph(shared: dict, dataset: str) -> Graph:
    """Wrap (once per pack per dataset) the shared CSR arrays, uncopied."""
    global _GRAPH_MEMO
    if _GRAPH_MEMO is None or _GRAPH_MEMO[0] is not shared:
        _GRAPH_MEMO = (shared, {})
    graphs = _GRAPH_MEMO[1]
    if dataset not in graphs:
        graphs[dataset] = Graph._from_csr(
            shared[f"indptr:{dataset}"], shared[f"indices:{dataset}"]
        )
    return graphs[dataset]


def _sweep_cell_task(arg, shared) -> ObfuscationResult:
    """One grid cell, runnable in any process.

    The cell's generator is its ``SeedSequence.spawn`` child — a pure
    function of ``(config.seed, len(cells), cell index)`` — so a worker
    building it from the pickled sequence gets the byte-identical stream
    the serial loop would hand :func:`obfuscate_with_fallback`.
    """
    (dataset, k, paper_eps, eps_used, c_chain, q, attempts, delta, child) = arg
    graph = _shared_graph(shared, dataset)
    with span("sweep_cell", dataset=dataset, k=k, eps=paper_eps) as sp:
        result = obfuscate_with_fallback(
            graph,
            k,
            eps_used,
            c_values=c_chain,
            seed=np.random.default_rng(child),
            q=q,
            attempts=attempts,
            delta=delta,
        )
        sp.set(success=result.success, sigma=result.sigma, c=result.params.c)
    return result


# ----------------------------------------------------------------------
# checkpoint (de)serialisation: exact ObfuscationResult round-trips
# ----------------------------------------------------------------------

def _sweep_cell_key(dataset: str, k: int, paper_eps: float) -> str:
    return f"sweep:{dataset}:k={k}:eps={paper_eps!r}"


def _result_to_checkpoint(result: ObfuscationResult):
    """``(payload, arrays)`` for a finished sweep cell.

    Scalars ride JSON (exact float round-trip), the uncertain graph's
    pair arrays ride ``.npz`` — a restored cell reproduces table rows
    and downstream world sampling bit for bit.  The search ``trace`` is
    dropped: no table reads it.
    """
    payload = {
        "sigma": result.sigma,
        "eps_achieved": result.eps_achieved,
        "params": asdict(result.params),
        "edges_processed": int(result.edges_processed),
        "rows_folded": int(result.rows_folded),
        "rows_recomputed": int(result.rows_recomputed),
        "elapsed_seconds": result.elapsed_seconds,
        "n": None,
    }
    arrays = None
    if result.uncertain is not None:
        us, vs, ps = result.uncertain.pair_arrays()
        payload["n"] = int(result.uncertain.num_vertices)
        arrays = {"us": us, "vs": vs, "ps": ps}
    return payload, arrays


def _result_from_checkpoint(payload: dict, arrays: dict) -> ObfuscationResult:
    uncertain = None
    if payload.get("n") is not None:
        uncertain = UncertainGraph._from_trusted_arrays(
            int(payload["n"]), arrays["us"], arrays["vs"], arrays["ps"]
        )
    return ObfuscationResult(
        uncertain=uncertain,
        sigma=payload["sigma"],
        eps_achieved=payload["eps_achieved"],
        params=ObfuscationParams(**payload["params"]),
        edges_processed=payload["edges_processed"],
        rows_folded=payload["rows_folded"],
        rows_recomputed=payload["rows_recomputed"],
        elapsed_seconds=payload["elapsed_seconds"],
    )


def _poisoned_result(k: int, eps_used: float, failure: TaskFailure) -> ObfuscationResult:
    """The flagged stand-in for a quarantined (poisoned) grid cell."""
    _log.error("sweep cell %d quarantined: %s", failure.index, failure.error)
    return ObfuscationResult(
        uncertain=None,
        sigma=float("nan"),
        eps_achieved=float("inf"),
        params=ObfuscationParams(k=k, eps=eps_used),
    )


def run_obfuscation_sweep(
    config: ExperimentConfig,
    *,
    eps_values: tuple[float, ...] | None = None,
    executor=None,
    checkpoint=None,
) -> list[SweepEntry]:
    """Run Algorithm 1 for every (dataset, k, ε) combination.

    Parameters
    ----------
    config:
        The experiment grid.
    eps_values:
        Optional ε subset override (Table 4 uses only ε = 10⁻⁴).
    executor:
        Optional :class:`~repro.exec.executor.ChunkExecutor`.  Grid
        cells are independent (each owns a counter-derived child
        stream), so a process backend runs them across workers; entries
        come back in the paper's row order with values bit-identical to
        the serial loop.
    checkpoint:
        Optional :class:`~repro.resilience.checkpoint.CheckpointStore`.
        Each finished cell is recorded atomically *as it completes* (so
        an interrupt keeps the finished prefix) and already-recorded
        cells are restored instead of recomputed — bit-identically,
        because every cell's seed child is a pure function of its grid
        index.  Quarantined (poisoned) cells are *not* recorded: a
        resumed run retries them.

    Returns
    -------
    list[SweepEntry]
        In dataset-major, k-minor, ε-innermost order (the paper's row
        order).
    """
    eps_values = eps_values if eps_values is not None else config.eps_values
    cells = [
        (d, k, e) for d in config.datasets for k in config.k_values for e in eps_values
    ]
    children = spawn_seed_sequences(config.seed, len(cells))
    graphs = {dataset: config.graph(dataset) for dataset in config.datasets}
    tasks = []
    for (dataset, k, paper_eps), child in zip(cells, children):
        eps_used = config.eps_for(dataset, paper_eps)
        _log.info(
            "sweep cell %s k=%d eps=%g (scaled %g)",
            dataset, k, paper_eps, eps_used,
        )
        tasks.append(
            (
                dataset,
                k,
                paper_eps,
                eps_used,
                config.c_chain,
                config.q,
                config.attempts,
                config.delta,
                child,
            )
        )
    restored: dict[int, ObfuscationResult] = {}
    if checkpoint is not None:
        for i, (dataset, k, paper_eps) in enumerate(cells):
            rec = checkpoint.restore(_sweep_cell_key(dataset, k, paper_eps))
            if rec is not None:
                restored[i] = _result_from_checkpoint(*rec)
        if restored:
            _log.info("sweep: restored %d/%d cells from checkpoint",
                      len(restored), len(cells))
    pending = [i for i in range(len(cells)) if i not in restored]
    pending_tasks = [tasks[i] for i in pending]

    def _record(j: int, value) -> None:
        # In-order per-cell checkpoint hook: flushed atomically before
        # the next cell's result is accepted, so an interrupt at any
        # point keeps every finished cell.
        if checkpoint is None or isinstance(value, TaskFailure):
            return
        i = pending[j]
        dataset, k, paper_eps = cells[i]
        payload, arrays = _result_to_checkpoint(value)
        checkpoint.record(_sweep_cell_key(dataset, k, paper_eps), payload, arrays)

    global _GRAPH_MEMO
    if executor is not None and getattr(executor, "backend", "serial") == "process":
        # The config (it caches Graph objects) never crosses the pickle
        # channel: cells travel as primitives + their seed child, and
        # each dataset's CSR arrays travel once via shared memory.
        shared = {}
        for dataset, graph in graphs.items():
            shared[f"indptr:{dataset}"] = graph.indptr
            shared[f"indices:{dataset}"] = graph.indices
        results = executor.map(
            _sweep_cell_task, pending_tasks, shared=shared, on_result=_record
        )
    else:
        # Serial: hand the task the parent's own Graph objects by
        # prefilling the memo against a sentinel dict.
        shared = {}
        _GRAPH_MEMO = (shared, dict(graphs))
        try:
            if executor is not None:
                results = executor.map(
                    _sweep_cell_task, pending_tasks, shared=shared,
                    on_result=_record,
                )
            else:
                results = []
                for j, task in enumerate(pending_tasks):
                    value = _sweep_cell_task(task, shared)
                    _record(j, value)
                    results.append(value)
        finally:
            _GRAPH_MEMO = None
    values: list = [restored.get(i) for i in range(len(cells))]
    for j, i in enumerate(pending):
        values[i] = results[j]
    entries: list[SweepEntry] = []
    for (dataset, k, paper_eps), task, result in zip(cells, tasks, values):
        if isinstance(result, TaskFailure):
            result = _poisoned_result(task[1], task[3], result)
        if not result.success:
            _log.warning(
                "sweep cell %s k=%d eps=%g failed at every c in %s",
                dataset, k, paper_eps, config.c_chain,
            )
        entries.append(
            SweepEntry(
                dataset=dataset,
                k=k,
                paper_eps=paper_eps,
                eps_used=task[3],
                result=result,
                graph=graphs[dataset],
            )
        )
    return entries


def table2_rows(sweep: list[SweepEntry]) -> list[dict]:
    """Table 2: minimal σ achieving (k, ε)-obfuscation per grid cell."""
    return [
        {
            "dataset": e.dataset,
            "k": e.k,
            "eps": e.paper_eps,
            "eps_scaled": e.eps_used,
            "sigma": e.result.sigma if e.result.success else float("nan"),
            "c": e.c_used,
            "success": e.result.success,
        }
        for e in sweep
    ]


def table3_rows(sweep: list[SweepEntry]) -> list[dict]:
    """Table 3: obfuscation throughput in candidate pairs ("edges") /sec."""
    return [
        {
            "dataset": e.dataset,
            "k": e.k,
            "eps": e.paper_eps,
            "edges_per_sec": e.result.edges_per_second,
            "elapsed_sec": e.result.elapsed_seconds,
            "c": e.c_used,
        }
        for e in sweep
    ]


def _original_statistics(graph: Graph, config: ExperimentConfig) -> dict[str, float]:
    stats = paper_statistics(
        distance_backend=config.distance_backend, seed=config.seed
    )
    return {name: float(func(graph)) for name, func in stats.items()}


def _utility_cell_key(entry: SweepEntry, config: ExperimentConfig) -> str:
    return (
        f"utility:{entry.dataset}:k={entry.k}:eps={entry.paper_eps!r}"
        f":worlds={config.worlds}:seed={config.seed}"
    )


def evaluate_utility(
    entry: SweepEntry,
    config: ExperimentConfig,
    *,
    cache: dict | None = None,
    executor=None,
    checkpoint=None,
) -> dict[str, SampleSummary]:
    """Sample ``config.worlds`` possible worlds and summarise all statistics.

    ``cache`` (keyed by (dataset, k, paper_eps)) lets Tables 4 and 5 —
    which report different views of the same 100-world sample — share one
    sampling pass, as the paper's tables do.  ``executor`` shards world
    evaluation across processes — the parent draws every world, so
    summaries stay bit-identical to serial.
    ``checkpoint`` records each cell's raw per-world statistic values
    (exactly, via ``.npz``) and restores them on resume instead of
    re-sampling.
    """
    assert entry.result.uncertain is not None, "cannot evaluate a failed cell"
    key = (entry.dataset, entry.k, entry.paper_eps)
    if cache is not None and key in cache:
        return cache[key]
    if checkpoint is not None:
        rec = checkpoint.restore(_utility_cell_key(entry, config))
        if rec is not None:
            payload, arrays = rec
            summaries = {
                name: SampleSummary(name, arrays[name]) for name in payload["names"]
            }
            _log.info(
                "utility %s k=%d: restored from checkpoint", entry.dataset, entry.k
            )
            if cache is not None:
                cache[key] = summaries
            return summaries
    # The engine adopts the family's distance backend and seed.
    estimator = WorldStatisticsEstimator(
        entry.result.uncertain,
        paper_statistics(
            distance_backend=config.distance_backend, seed=config.seed
        ),
        executor=executor,
    )
    _log.info(
        "utility %s k=%d: sampling %d worlds",
        entry.dataset, entry.k, config.worlds,
    )
    with span(
        "evaluate_utility",
        dataset=entry.dataset,
        k=entry.k,
        worlds=config.worlds,
    ):
        summaries = estimator.run(
            worlds=config.worlds, seed=(config.seed, entry.k)
        )
    if checkpoint is not None:
        checkpoint.record(
            _utility_cell_key(entry, config),
            {"names": list(summaries)},
            {name: s.values for name, s in summaries.items()},
        )
    if cache is not None:
        cache[key] = summaries
    return summaries


def table4_rows(
    sweep: list[SweepEntry],
    config: ExperimentConfig,
    *,
    cache: dict | None = None,
    executor=None,
    checkpoint=None,
) -> list[dict]:
    """Table 4: sample means vs original values + average relative error.

    Emits one ``real`` row per dataset followed by one row per k (the
    sweep should be restricted to ε = 10⁻⁴ as in the paper).
    """
    rows: list[dict] = []
    by_dataset: dict[str, list[SweepEntry]] = {}
    for e in sweep:
        by_dataset.setdefault(e.dataset, []).append(e)
    for dataset, entries in by_dataset.items():
        graph = entries[0].graph
        original = _original_statistics(graph, config)
        real_row = {"dataset": dataset, "variant": "real", **original, "rel_err": 0.0}
        rows.append(real_row)
        for e in entries:
            if not e.result.success:
                rows.append(
                    {"dataset": dataset, "variant": f"k={e.k}", "rel_err": float("nan")}
                )
                continue
            summaries = evaluate_utility(
                e, config, cache=cache, executor=executor, checkpoint=checkpoint
            )
            rel_errors = []
            row: dict = {"dataset": dataset, "variant": f"k={e.k}"}
            for name in PAPER_STATISTIC_NAMES:
                summary = summaries[name]
                row[name] = summary.mean
                rel_errors.append(summary.relative_error(original[name]))
            row["rel_err"] = float(np.mean(rel_errors))
            rows.append(row)
    return rows


def table5_rows(
    sweep: list[SweepEntry],
    config: ExperimentConfig,
    *,
    cache: dict | None = None,
    executor=None,
    checkpoint=None,
) -> list[dict]:
    """Table 5: relative sample SEM of every statistic per (dataset, k)."""
    rows: list[dict] = []
    for e in sweep:
        if not e.result.success:
            continue
        summaries = evaluate_utility(
            e, config, cache=cache, executor=executor, checkpoint=checkpoint
        )
        row: dict = {"dataset": e.dataset, "k": e.k}
        sems = []
        for name in PAPER_STATISTIC_NAMES:
            rel_sem = summaries[name].relative_sem
            row[name] = rel_sem
            sems.append(rel_sem)
        row["average"] = float(np.mean(sems))
        rows.append(row)
    return rows
