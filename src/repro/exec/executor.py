"""The chunk executor: one dispatch surface under every engine.

:class:`ChunkExecutor` runs a list of chunk tasks through a backend:

* ``backend="serial"`` — plain in-process iteration.  The degenerate
  case every engine already was; metrics and spans flow naturally.
* ``backend="process"`` — a ``fork``-context process pool, forked
  afresh by each ``map`` call and joined before it returns or raises.
  The call's ``shared`` object reaches the workers through the pool
  initializer, so they inherit it at fork: nothing of it is pickled or
  copied.  Only each task's small argument travels pickled, and each
  task result carries the worker's metric dump and buffered span
  records back to the parent, where they are merged into the global
  registry and the active trace (:meth:`repro.obs.trace.Tracer.absorb`).

**Bit-identity discipline.**  The executor itself never touches an RNG
stream: callers draw randomness in the parent (preserving the exact
serial stream positions) or derive per-chunk counter-based substreams
(``SeedSequence.spawn`` children, one per grid cell), and workers
evaluate deterministically.  Results return in task order, so
``executor.map(fn, tasks)`` equals ``[fn(t, shared) for t in tasks]``
bit-for-bit — pinned at 1/2/4 workers by ``tests/exec``.

**Fault tolerance.**  Because every task is a pure function of its
index, re-execution is exactness-preserving — so the process backend
survives crashed and hung workers.  Tasks are dispatched individually
(``apply_async``) and collected by a loop that waits on the next
result for at most one poll tick and watches the pool's worker PIDs
between waits: a SIGKILLed worker changes the PID set, at which point the
pool is re-forked and every in-flight task is resubmitted (a task that
happened to complete twice is harmless: only the accepted execution's
result/metrics/spans are merged).  Per-task ``task_timeout_s`` treats a
stuck worker the same way.  Failures are retried on a bounded,
deterministic jittered-backoff schedule (:class:`~repro.resilience.retry.RetryPolicy`);
a task that exhausts its budget either re-raises in the parent
(default) or — with ``quarantine=True`` — yields a :class:`TaskFailure`
sentinel in its slot so a single poison cell cannot abort a 52-minute
grid.  The counters ``exec.retries``, ``exec.worker_deaths``,
``exec.timeouts`` and ``exec.poisoned`` record every such event and
flow into run manifests.

**Error propagation.**  With ``quarantine=False`` a task that exhausts
retries re-raises in the parent (the pool's remote-traceback plumbing),
after the pool is terminated and joined — a crash of one worker never
strands a sibling process or deadlocks the next ``map``.

Workers reset the global metrics registry at the start of *every* task
(tasks run sequentially within a worker), so the end-of-task dump *is*
the task's delta; the parent folds each delta in as results arrive.
Fork-inherited tracers are disarmed in the worker initializer
(:func:`repro.obs.trace.drop_inherited_tracer`) so child spans are
buffered in memory and shipped — never double-written to the parent's
JSONL stream.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass

from repro.obs.metrics import REGISTRY, reset_metrics
from repro.obs.trace import (
    current_tracer,
    disable_tracing,
    drop_inherited_tracer,
    enable_tracing,
    span,
    tracing_enabled,
)
from repro.resilience.faults import fault_point
from repro.resilience.retry import RetryPolicy

__all__ = [
    "ChunkExecutor",
    "TaskFailure",
    "TaskTimeoutError",
    "WorkerLostError",
    "effective_workers",
    "make_executor",
]

#: Poll cadence of the process-backend collection loop (seconds).
_POLL_S = 0.02


class WorkerLostError(RuntimeError):
    """A pool worker died (SIGKILL/OOM) and the task's retries ran out."""


class TaskTimeoutError(TimeoutError):
    """A task exceeded ``task_timeout_s`` and its retries ran out."""


@dataclass(frozen=True)
class TaskFailure:
    """Quarantine sentinel: the result slot of a poisoned task.

    Returned (in order, in place of a result) by ``map`` when
    ``quarantine=True`` and the task failed every attempt.  ``kind`` is
    ``"exception"``, ``"worker_lost"`` or ``"timeout"``; ``error`` is
    the stringified final failure.
    """

    index: int
    kind: str
    error: str
    retries: int


def effective_workers(workers: int | None) -> int:
    """Resolve a ``--workers`` value (``None``/``0`` → the CPU count)."""
    if workers is None or workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


def make_executor(
    workers: int | None,
    *,
    task_timeout_s: float | None = None,
    retry: RetryPolicy | None = None,
    quarantine: bool = False,
) -> "ChunkExecutor":
    """The conventional ``--workers N`` mapping used by every driver.

    ``None``/``0``/``1`` → the serial backend; ``N > 1`` → a process
    pool of ``N`` workers.  (``0`` resolves to the CPU count first, so
    ``--workers 0`` means "all cores" and only falls back to serial on
    a single-core box.)  ``task_timeout_s``/``retry``/``quarantine``
    pass through to :class:`ChunkExecutor`.
    """
    resolved = effective_workers(workers)
    if resolved <= 1:
        return ChunkExecutor(
            backend="serial",
            task_timeout_s=task_timeout_s,
            retry=retry,
            quarantine=quarantine,
        )
    return ChunkExecutor(
        backend="process",
        workers=resolved,
        task_timeout_s=task_timeout_s,
        retry=retry,
        quarantine=quarantine,
    )


#: The ``shared`` object of the ``map`` call that forked this worker.
_SHARED = None


def _worker_init(shared) -> None:
    """Per-process initialisation, run once right after fork."""
    global _SHARED
    _SHARED = shared
    drop_inherited_tracer()
    reset_metrics()


def _run_task(payload):
    """Worker-side task wrapper: metrics delta + buffered span capture."""
    fn, arg, capture_spans, index, attempt = payload
    fault_point("exec.task.pre", index=index, attempt=attempt)
    reset_metrics()
    tracer = enable_tracing(None) if capture_spans else None
    try:
        result = fn(arg, _SHARED)
    finally:
        if tracer is not None:
            disable_tracing()
    fault_point("exec.task.post", index=index, attempt=attempt)
    records = tracer.finished if tracer is not None else []
    return result, REGISTRY.dump(), records


class _TaskState:
    """Parent-side bookkeeping for one task of one ``map`` call."""

    __slots__ = (
        "index", "task", "attempt", "failures",
        "async_result", "submitted_at", "retry_at", "done", "value",
    )

    def __init__(self, index, task):
        self.index = index
        self.task = task
        self.attempt = 0          # execution count (fault-rule matching)
        self.failures = 0         # charged failures (retry budget)
        self.async_result = None  # in-flight handle, else None
        self.submitted_at = 0.0
        self.retry_at = 0.0       # backoff gate for the next submission
        self.done = False
        self.value = None         # (result, metrics, spans) | TaskFailure


class ChunkExecutor:
    """Ordered ``map`` of chunk tasks over a serial or process backend.

    Parameters
    ----------
    backend:
        ``"serial"`` or ``"process"``.
    workers:
        Pool size for the process backend (default: the CPU count).
        Ignored by the serial backend.
    task_timeout_s:
        Per-task wall-clock budget for a single execution attempt;
        ``None`` (default) disables the hung-task watchdog.
    retry:
        The :class:`~repro.resilience.retry.RetryPolicy` governing
        re-execution of failed/lost/timed-out tasks (default policy:
        2 retries, 50 ms seeded-jitter exponential backoff).
    quarantine:
        When ``True``, a task that exhausts its retries yields a
        :class:`TaskFailure` in its result slot instead of aborting the
        whole map.  Default ``False`` preserves raise-through semantics.

    Each :meth:`map` call of the process backend forks its own pool,
    whose workers inherit that call's ``shared`` object, and joins it
    before returning or raising: no worker outlives a call, and none
    sees an earlier call's data.  The context manager and :meth:`close`
    scope an executor; after a ``map`` they have nothing left to join.
    """

    def __init__(
        self,
        *,
        backend: str = "serial",
        workers: int | None = None,
        task_timeout_s: float | None = None,
        retry: RetryPolicy | None = None,
        quarantine: bool = False,
    ):
        if backend not in ("serial", "process"):
            raise ValueError(
                f"unknown backend {backend!r}; use serial/process"
            )
        if task_timeout_s is not None and task_timeout_s <= 0:
            raise ValueError(f"task_timeout_s must be > 0, got {task_timeout_s}")
        self.backend = backend
        self.workers = effective_workers(workers) if backend == "process" else 1
        self.task_timeout_s = task_timeout_s
        self.retry = retry if retry is not None else RetryPolicy()
        self.quarantine = quarantine
        self._pool = None
        if backend == "process":
            methods = multiprocessing.get_all_start_methods()
            if "fork" not in methods:  # pragma: no cover - non-POSIX
                raise RuntimeError(
                    "the process backend needs the fork start method "
                    f"(available: {methods}); use backend='serial'"
                )

    # ------------------------------------------------------------------
    def map(self, fn, tasks, *, shared=None, on_result=None) -> list:
        """``[fn(task, shared) for task in tasks]``, maybe sharded.

        Parameters
        ----------
        fn:
            A **module-level** callable ``fn(task, shared) -> result``
            (workers import it by reference).
        tasks:
            The per-chunk arguments, in result order.  Each is pickled
            to the worker that runs it, so keep them small.
        shared:
            Any object every task reads (default ``None``), passed as
            ``fn``'s second argument.  The serial backend passes it
            through untouched; the process backend's workers inherit it
            when this call forks them, so it must exist when ``map`` is
            called and is never pickled or copied.  It is read-only by
            contract: a worker's writes stay in that worker, and the
            serial backend's would leak into the caller.
        on_result:
            Optional ``on_result(index, value)`` callback invoked for
            each accepted result **in task order** as soon as every
            earlier task has completed — the hook incremental
            checkpointing hangs off, so an interrupt mid-map keeps the
            finished prefix.  ``value`` is the task's result, or a
            :class:`TaskFailure` under quarantine.

        Results come back in task order regardless of which worker ran
        what — the property every seed-equivalence pin relies on.
        """
        tasks = list(tasks)
        if self.backend == "serial":
            return self._map_serial(fn, tasks, shared, on_result)
        return self._map_process(fn, tasks, shared, on_result)

    # -- serial backend ------------------------------------------------
    def _map_serial(self, fn, tasks, shared, on_result) -> list:
        results = []
        for index, task in enumerate(tasks):
            attempt = 0
            while True:
                try:
                    fault_point("exec.task.pre", index=index, attempt=attempt)
                    value = fn(task, shared)
                    fault_point("exec.task.post", index=index, attempt=attempt)
                    break
                except Exception as exc:
                    failures = attempt + 1
                    if self.retry.allows(failures):
                        REGISTRY.counter("exec.retries").add()
                        time.sleep(self.retry.backoff_s(index, failures - 1))
                        attempt += 1
                        continue
                    if not self.quarantine:
                        raise
                    REGISTRY.counter("exec.poisoned").add()
                    value = TaskFailure(
                        index=index, kind="exception",
                        error=f"{type(exc).__name__}: {exc}", retries=attempt,
                    )
                    break
            results.append(value)
            if on_result is not None:
                on_result(index, value)
        return results

    # -- process backend -----------------------------------------------
    def _map_process(self, fn, tasks, shared, on_result) -> list:
        if not tasks:
            return []
        capture = tracing_enabled()
        tracer = current_tracer()
        results = []
        with span(
            "exec.map",
            backend=self.backend,
            workers=self.workers,
            tasks=len(tasks),
        ):
            try:
                self._fork_pool(shared)
                states = [_TaskState(i, t) for i, t in enumerate(tasks)]
                for st in states:
                    self._submit(st, fn, capture)
                known_pids = self._pool_pids()
                next_emit = 0
                while next_emit < len(states):
                    now = time.monotonic()
                    # 1. Worker-death watch: a SIGKILLed/OOMed worker
                    # changes the pool's PID set (or shows not-alive).
                    # Its in-flight task is silently lost by
                    # multiprocessing.Pool, so rebuild the pool and
                    # resubmit everything unfinished.
                    pids = self._pool_pids()
                    if pids != known_pids:
                        REGISTRY.counter("exec.worker_deaths").add()
                        self._handle_pool_loss(states, "worker_lost", shared)
                        known_pids = self._pool_pids()
                        continue  # step 4 resubmits the invalidated tasks
                    # 2. Hung-task watchdog.
                    if self.task_timeout_s is not None:
                        timed_out = [
                            st for st in states
                            if st.async_result is not None and not st.done
                            and now - st.submitted_at > self.task_timeout_s
                        ]
                        if timed_out:
                            REGISTRY.counter("exec.timeouts").add(len(timed_out))
                            for st in timed_out:
                                st.failures += 1
                            # The stuck worker only dies with the pool;
                            # siblings' in-flight work is lost too, but
                            # uncharged — they resubmit for free.
                            self._handle_pool_loss(
                                states, "timeout", shared, charged=timed_out
                            )
                            known_pids = self._pool_pids()
                            continue
                    # 3. Collect ready results / failures.
                    progressed = False
                    for st in states:
                        if st.done or st.async_result is None:
                            continue
                        if not st.async_result.ready():
                            continue
                        progressed = True
                        try:
                            st.value = st.async_result.get()
                            st.done = True
                        except Exception as exc:
                            st.async_result = None
                            self._charge_failure(st, "exception", exc, now)
                    # 4. Backoff gates: resubmit tasks whose retry
                    # delay has elapsed.
                    for st in states:
                        if (
                            not st.done
                            and st.async_result is None
                            and now >= st.retry_at
                        ):
                            st.attempt += 1
                            REGISTRY.counter("exec.retries").add()
                            self._submit(st, fn, capture)
                            progressed = True
                    # 5. Emit accepted results in task order; merge the
                    # accepted execution's metrics/spans exactly once.
                    while next_emit < len(states) and states[next_emit].done:
                        st = states[next_emit]
                        if isinstance(st.value, TaskFailure):
                            value = st.value
                        else:
                            value, metrics_dump, records = st.value
                            REGISTRY.merge(metrics_dump)
                            if tracer is not None:
                                tracer.absorb(records)
                        results.append(value)
                        if on_result is not None:
                            on_result(st.index, value)
                        st.value = None
                        next_emit += 1
                        progressed = True
                    if not progressed:
                        # Block on the task due next, so its result is
                        # seen as it lands; the bound keeps the death
                        # and timeout watches above at their cadence.
                        due = states[next_emit]
                        if due.async_result is not None:
                            due.async_result.wait(_POLL_S)
                        else:  # waiting out its retry backoff
                            wait_s = due.retry_at - time.monotonic()
                            time.sleep(min(_POLL_S, max(0.0, wait_s)))
            finally:
                # Returned or raised (a task out of retries, a parent
                # interrupt): no worker outlives the call.
                self.close()
        return results

    # -- process-backend internals -------------------------------------
    def _fork_pool(self, shared) -> None:
        """(Re)fork the pool; its workers inherit ``shared`` at fork."""
        self.close()
        ctx = multiprocessing.get_context("fork")
        self._pool = ctx.Pool(
            self.workers, initializer=_worker_init, initargs=(shared,)
        )

    def _pool_pids(self):
        try:
            procs = list(self._pool._pool)
            if any(not p.is_alive() for p in procs):
                return None  # never equals a pid tuple: forces the loss path
            return tuple(sorted(p.pid for p in procs))
        except Exception:  # pragma: no cover - pool mid-mutation
            return None

    def _submit(self, st: _TaskState, fn, capture) -> None:
        payload = (fn, st.task, capture, st.index, st.attempt)
        st.async_result = self._pool.apply_async(_run_task, (payload,))
        st.submitted_at = time.monotonic()

    def _handle_pool_loss(self, states, kind, shared, charged=None) -> None:
        """Re-fork the pool; charge (or just invalidate) in-flight tasks.

        ``charged=None`` (worker death — the lost task cannot be
        attributed) charges every in-flight task one failure; a list
        charges only those tasks.  A charged task over budget fails
        terminally here.
        """
        self._fork_pool(shared)
        for st in states:
            if st.done or st.async_result is None:
                continue
            st.async_result = None
            if charged is None:
                st.failures += 1
            elif st not in charged:
                continue
            if not self.retry.allows(st.failures):
                exc = (
                    TaskTimeoutError(
                        f"task {st.index} exceeded {self.task_timeout_s}s "
                        f"on {st.failures} attempts"
                    )
                    if kind == "timeout"
                    else WorkerLostError(
                        f"task {st.index} lost to worker death "
                        f"{st.failures} times"
                    )
                )
                self._finalize_failure(st, kind, exc)

    def _charge_failure(self, st: _TaskState, kind, exc, now) -> None:
        st.failures += 1
        if self.retry.allows(st.failures):
            st.retry_at = now + self.retry.backoff_s(st.index, st.failures - 1)
            return
        self._finalize_failure(st, kind, exc)

    def _finalize_failure(self, st: _TaskState, kind, exc) -> None:
        if not self.quarantine:
            raise exc
        REGISTRY.counter("exec.poisoned").add()
        st.value = TaskFailure(
            index=st.index, kind=kind,
            error=f"{type(exc).__name__}: {exc}", retries=st.failures - 1,
        )
        st.done = True

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Terminate and join the pool, if one is running (idempotent).

        ``map`` calls this before it returns or raises, so afterwards
        it is a no-op.
        """
        if self._pool is not None:
            pool, self._pool = self._pool, None
            pool.terminate()
            pool.join()

    def __enter__(self) -> "ChunkExecutor":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
