"""The chunk executor: ordering, obs round-trip, shared data, crashes."""

from __future__ import annotations

import time
import types

import numpy as np
import pytest

import repro.exec.executor as executor_module
from repro.exec import ChunkExecutor, effective_workers, make_executor
from repro.obs.metrics import REGISTRY, reset_metrics
from repro.obs.trace import disable_tracing, enable_tracing, span

from tests.exec.equivalence import stray_processes


# Task functions must be module-level: workers import them by reference.

def _scale_slice(task, shared):
    lo, hi = task
    return shared["xs"][lo:hi] * 2.0


def _identity(task, shared):
    return task


def _echo_shared(task, shared):
    return shared


def _count_and_echo(task, shared):
    REGISTRY.counter("test.exec.tasks").add()
    REGISTRY.counter("test.exec.items").add(task)
    return task


def _spanned(task, shared):
    with span("test.exec.child", task=task):
        return task * 10


def _explode_on_two(task, shared):
    if task == 2:
        raise RuntimeError(f"task {task} exploded")
    return task


class TestMapContract:
    def test_process_matches_serial_with_shared_arrays(self):
        xs = np.arange(100, dtype=np.float64)
        tasks = [(0, 10), (10, 55), (55, 100)]
        serial = ChunkExecutor(backend="serial").map(
            _scale_slice, tasks, shared={"xs": xs}
        )
        with ChunkExecutor(backend="process", workers=2) as ex:
            sharded = ex.map(_scale_slice, tasks, shared={"xs": xs})
        assert len(serial) == len(sharded) == len(tasks)
        for a, b in zip(serial, sharded):
            assert np.array_equal(a, b)

    def test_results_come_back_in_task_order(self):
        tasks = list(range(17))
        with ChunkExecutor(backend="process", workers=4) as ex:
            assert ex.map(_identity, tasks) == tasks

    def test_empty_task_list(self):
        with ChunkExecutor(backend="process", workers=2) as ex:
            assert ex.map(_identity, []) == []

    def test_serial_backend_passes_shared_through_untouched(self):
        shared = {"xs": np.arange(3)}
        [echoed] = ChunkExecutor(backend="serial").map(
            _echo_shared, [0], shared=shared
        )
        assert echoed is shared  # no copy

    def test_collection_blocks_on_results_instead_of_sleeping(self, monkeypatch):
        """With no fault and no backoff, the parent never sleeps out a
        poll tick: it waits on the next result and sees it as it lands."""
        sleeps = []

        def recording_sleep(seconds):
            sleeps.append(seconds)
            time.sleep(seconds)

        monkeypatch.setattr(
            executor_module,
            "time",
            types.SimpleNamespace(monotonic=time.monotonic, sleep=recording_sleep),
        )
        with ChunkExecutor(backend="process", workers=2) as ex:
            assert ex.map(_identity, [0, 1, 2, 3]) == [0, 1, 2, 3]
        assert sleeps == []

    def test_each_map_joins_its_pool(self):
        xs = np.arange(1000, dtype=np.float64)
        with ChunkExecutor(backend="process", workers=2) as ex:
            for _ in range(2):
                ex.map(_scale_slice, [(0, 500), (500, 1000)], shared={"xs": xs})
                assert ex._pool is None
                assert stray_processes() == []


class TestObsRoundTrip:
    def test_worker_metrics_merge_into_parent(self):
        reset_metrics()
        tasks = [1, 2, 3, 4, 5]
        with ChunkExecutor(backend="process", workers=2) as ex:
            ex.map(_count_and_echo, tasks)
        assert REGISTRY.get("test.exec.tasks") == len(tasks)
        assert REGISTRY.get("test.exec.items") == sum(tasks)

    def test_worker_spans_graft_under_exec_map(self):
        tasks = [1, 2, 3]
        tracer = enable_tracing(None)
        try:
            with ChunkExecutor(backend="process", workers=2) as ex:
                results = ex.map(_spanned, tasks)
        finally:
            disable_tracing()
        assert results == [10, 20, 30]
        ids = [rec["id"] for rec in tracer.finished]
        assert len(ids) == len(set(ids))
        children = [r for r in tracer.finished if r["name"] == "test.exec.child"]
        assert len(children) == len(tasks)  # exactly once each: no double-write
        [map_span] = [r for r in tracer.finished if r["name"] == "exec.map"]
        assert all(rec["parent"] == map_span["id"] for rec in children)
        assert all(rec["depth"] == map_span["depth"] + 1 for rec in children)

    def test_no_spans_shipped_when_tracing_disabled(self):
        with ChunkExecutor(backend="process", workers=2) as ex:
            assert ex.map(_spanned, [1]) == [10]  # no tracer: still works


class TestCrashPropagation:
    def test_worker_exception_reraises_in_parent(self):
        with ChunkExecutor(backend="process", workers=2) as ex:
            with pytest.raises(RuntimeError, match="task 2 exploded"):
                ex.map(_explode_on_two, [0, 1, 2, 3])
            # the map joined its pool before raising; the next map
            # forks a fresh one
            assert ex._pool is None
            assert stray_processes() == []
            assert ex.map(_identity, [7]) == [7]

    def test_crash_with_shared_data_leaves_no_process(self):
        xs = np.arange(10, dtype=np.float64)
        with ChunkExecutor(backend="process", workers=2) as ex:
            with pytest.raises(RuntimeError):
                ex.map(_explode_on_two, [2], shared={"xs": xs})
            assert stray_processes() == []


class TestConstruction:
    def test_effective_workers(self):
        import os

        cpus = os.cpu_count() or 1
        assert effective_workers(None) == cpus
        assert effective_workers(0) == cpus
        assert effective_workers(3) == 3
        with pytest.raises(ValueError):
            effective_workers(-1)

    def test_make_executor_mapping(self):
        assert make_executor(1).backend == "serial"
        assert make_executor(None).workers >= 1
        ex = make_executor(2)
        try:
            assert ex.backend == "process"
            assert ex.workers == 2
        finally:
            ex.close()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            ChunkExecutor(backend="threads")

    def test_close_is_idempotent(self):
        ex = ChunkExecutor(backend="process", workers=2)
        ex.map(_identity, [1])
        ex.close()
        ex.close()
        assert ex._pool is None
