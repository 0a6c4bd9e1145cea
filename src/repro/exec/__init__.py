"""repro.exec — one sharded execution layer under the three engines.

The ROADMAP's "one execution layer" seam, landed: every engine that
splits work into chunks (the Table-2 sweep grid, Table-4 world
evaluation, Table-6 release streams) now plans
through :class:`~repro.exec.plan.ChunkPlan` and dispatches through
:class:`~repro.exec.executor.ChunkExecutor`, which runs the chunks
serially or across a fork-based process pool — bit-identically either
way at equal seeds.

* :mod:`repro.exec.plan` — the unified chunk planner (the consolidated
  ``chunk_size="auto"`` rules, all ``>= 1``-clamped).
* :mod:`repro.exec.executor` — serial/process ``map`` with ordered
  results, worker metric/span capture merged back into the parent
  registry and trace, and remote-exception propagation.
* :mod:`repro.exec.shm` — read-only shared-memory NumPy arrays so
  workers never pickle the graph or the union incidence.

Drivers expose the layer as ``--workers N`` (``repro stats``,
``repro compare``, ``python -m repro.experiments``,
``benchmarks/run_paper_scale.py``); library callers pass an executor
to ``run_obfuscation_sweep`` / ``evaluate_utility`` /
``BatchStatisticsEngine.evaluate_stream``.
"""

from repro.exec.executor import (
    ChunkExecutor,
    TaskFailure,
    TaskTimeoutError,
    WorkerLostError,
    effective_workers,
    make_executor,
)
from repro.exec.plan import (
    ANF_REGISTER_STACK_BYTES,
    KEEP_MATRIX_BYTES,
    PACKED_DRAW_BYTES,
    RELEASE_CHUNK_DEFAULT,
    SAMPLE_CHUNK_DEFAULT,
    Chunk,
    ChunkPlan,
    draw_rows_per_pass,
    world_eval_chunk_size,
)
from repro.exec.shm import SharedArrayPack, attach_shared

__all__ = [
    "ANF_REGISTER_STACK_BYTES",
    "KEEP_MATRIX_BYTES",
    "PACKED_DRAW_BYTES",
    "RELEASE_CHUNK_DEFAULT",
    "SAMPLE_CHUNK_DEFAULT",
    "Chunk",
    "ChunkExecutor",
    "ChunkPlan",
    "SharedArrayPack",
    "TaskFailure",
    "TaskTimeoutError",
    "WorkerLostError",
    "attach_shared",
    "draw_rows_per_pass",
    "effective_workers",
    "make_executor",
    "world_eval_chunk_size",
]
