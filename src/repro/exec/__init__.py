"""repro.exec — one sharded execution layer under the engines.

Every engine that splits work across processes dispatches through
:class:`~repro.exec.executor.ChunkExecutor`, which runs a task list
serially or across a fork-based process pool — bit-identically either
way at equal seeds.  Two engines use it: the Table-2 sweep grid (one
task per cell) and the possible-world engine
(:meth:`repro.worlds.estimator.BatchStatisticsEngine.evaluate`, one task
per world slice), which serves Table 4/5 and the Table-6 release
stream alike.

* :mod:`repro.exec.plan` — the world engine's slice and draw sizing
  rules, all ``>= 1``-clamped.
* :mod:`repro.exec.executor` — serial/process ``map`` with ordered
  results, worker metric/span capture merged back into the parent
  registry and trace, and remote-exception propagation.
* :mod:`repro.exec.shm` — read-only shared-memory NumPy arrays so
  workers never pickle the graph or the union incidence.

Drivers expose the layer as ``--workers N`` (``repro stats``,
``repro compare``, ``python -m repro.experiments``,
``benchmarks/run_paper_scale.py``); library callers pass an executor
to ``run_obfuscation_sweep`` / ``evaluate_utility`` /
``BatchStatisticsEngine.evaluate``.
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
    draw_rows_per_pass,
    world_eval_chunk_size,
)
from repro.exec.shm import SharedArrayPack, attach_shared

__all__ = [
    "ANF_REGISTER_STACK_BYTES",
    "KEEP_MATRIX_BYTES",
    "PACKED_DRAW_BYTES",
    "ChunkExecutor",
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
