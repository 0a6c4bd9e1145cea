"""Executor fault tolerance under the deterministic chaos harness.

The pinned contract (ISSUE 10): SIGKILL one worker mid-``map`` at two
workers and the map still completes — bit-identical to a fault-free
run — with the retry recorded in the metrics the manifest snapshots.
Everything here runs at tiny task counts so the whole module stays in
CI-smoke time.
"""

import numpy as np
import pytest

from repro.exec import (
    ChunkExecutor,
    TaskFailure,
    TaskTimeoutError,
    WorkerLostError,
    make_executor,
)
from repro.obs.metrics import REGISTRY
from repro.resilience import (
    FaultInjected,
    FaultPlan,
    FaultRule,
    RetryPolicy,
    install_fault_plan,
)

from tests.exec.equivalence import stray_processes


def _square(x, shared=None):
    return x * x


def _rng_draw(seed, shared=None):
    # Seed-pinned payload: retries must reproduce it bit-for-bit.
    return np.random.default_rng(seed).random(32)


def _index_shared(i, shared):
    return float(shared["base"][i])


@pytest.fixture(autouse=True)
def _clean_plan():
    install_fault_plan(None)
    yield
    install_fault_plan(None)


@pytest.fixture
def _fast_retry():
    # Keep chaos tests quick: small backoff, generous budget.
    return RetryPolicy(max_retries=3, base_delay_s=0.01, max_delay_s=0.05)


class TestWorkerKill:
    def test_sigkill_mid_map_is_bit_identical(self, _fast_retry):
        """The ISSUE-10 pinned test."""
        seeds = list(range(10))
        expected = [_rng_draw(s) for s in seeds]

        install_fault_plan(FaultPlan(rules=(
            FaultRule(site="exec.task.pre", action="kill", indices=(3,)),
        )))
        before = REGISTRY.get("exec.retries")
        ex = make_executor(2, retry=_fast_retry)
        got = ex.map(_rng_draw, seeds)

        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert np.array_equal(g, e)  # bit-identical despite the kill
        assert REGISTRY.get("exec.worker_deaths") >= 1
        assert REGISTRY.get("exec.retries") > before  # recorded for manifest
        assert stray_processes() == []

    def test_kill_with_shared_arrays(self, _fast_retry):
        install_fault_plan(FaultPlan(rules=(
            FaultRule(site="exec.task.pre", action="kill", indices=(1,)),
        )))
        base = np.arange(100, dtype=np.float64)
        ex = make_executor(2, retry=_fast_retry)
        got = ex.map(_index_shared, list(range(6)), shared={"base": base})
        assert got == [float(i) for i in range(6)]
        assert stray_processes() == []

    def test_respawned_workers_see_the_current_maps_shared(self, _fast_retry):
        ex = make_executor(2, retry=_fast_retry)
        tasks = list(range(6))
        a = np.arange(6, dtype=np.float64)
        assert ex.map(_index_shared, tasks, shared={"base": a}) == a.tolist()
        b = a + 100.0  # built after the first map's workers forked
        install_fault_plan(FaultPlan(rules=(
            FaultRule(site="exec.task.pre", action="kill", indices=(2,)),
        )))
        deaths = REGISTRY.get("exec.worker_deaths")
        assert ex.map(_index_shared, tasks, shared={"base": b}) == b.tolist()
        assert REGISTRY.get("exec.worker_deaths") > deaths  # re-forked
        install_fault_plan(None)
        c = a + 200.0
        assert ex.map(_index_shared, tasks, shared={"base": c}) == c.tolist()
        assert stray_processes() == []

    def test_repeated_kills_exhaust_retry_budget(self):
        # attempts=None: the kill chases every retry; the budget must
        # eventually surface WorkerLostError instead of looping forever.
        install_fault_plan(FaultPlan(rules=(
            FaultRule(site="exec.task.pre", action="kill",
                      indices=(0,), attempts=None),
        )))
        ex = make_executor(
            2, retry=RetryPolicy(max_retries=1, base_delay_s=0.01)
        )
        with pytest.raises(WorkerLostError):
            ex.map(_square, [1, 2, 3])
        assert ex._pool is None  # close-on-raise contract
        assert stray_processes() == []


class TestTransientErrors:
    def test_transient_raise_is_retried(self, _fast_retry):
        install_fault_plan(FaultPlan(rules=(
            FaultRule(site="exec.task.post", action="raise", indices=(2,)),
        )))
        before = REGISTRY.get("exec.retries")
        ex = make_executor(2, retry=_fast_retry)
        got = ex.map(_square, list(range(6)))
        assert got == [x * x for x in range(6)]
        assert REGISTRY.get("exec.retries") > before
        assert stray_processes() == []

    def test_serial_path_retries_too(self, _fast_retry):
        install_fault_plan(FaultPlan(rules=(
            FaultRule(site="exec.task.pre", action="raise", indices=(1,)),
        )))
        ex = ChunkExecutor(workers=1, retry=_fast_retry)
        got = ex.map(_square, [1, 2, 3])
        assert got == [1, 4, 9]

    def test_persistent_raise_propagates_without_quarantine(self):
        install_fault_plan(FaultPlan(rules=(
            FaultRule(site="exec.task.pre", action="raise",
                      indices=(1,), attempts=None),
        )))
        ex = make_executor(
            2, retry=RetryPolicy(max_retries=1, base_delay_s=0.01)
        )
        with pytest.raises(FaultInjected):
            ex.map(_square, [1, 2, 3])
        assert ex._pool is None
        assert stray_processes() == []


class TestQuarantine:
    def test_poison_task_is_quarantined(self):
        install_fault_plan(FaultPlan(rules=(
            FaultRule(site="exec.task.pre", action="raise",
                      indices=(1,), attempts=None),
        )))
        before = REGISTRY.get("exec.poisoned")
        ex = make_executor(
            2,
            retry=RetryPolicy(max_retries=1, base_delay_s=0.01),
            quarantine=True,
        )
        got = ex.map(_square, [1, 2, 3])
        assert got[0] == 1 and got[2] == 9
        failure = got[1]
        assert isinstance(failure, TaskFailure)
        assert failure.index == 1 and failure.retries >= 1
        assert "FaultInjected" in failure.kind or "fault" in failure.error.lower()
        assert REGISTRY.get("exec.poisoned") > before
        assert stray_processes() == []

    def test_quarantine_serial_path(self):
        install_fault_plan(FaultPlan(rules=(
            FaultRule(site="exec.task.pre", action="raise",
                      indices=(0,), attempts=None),
        )))
        ex = ChunkExecutor(
            workers=1,
            retry=RetryPolicy(max_retries=0, base_delay_s=0.01),
            quarantine=True,
        )
        got = ex.map(_square, [5, 6])
        assert isinstance(got[0], TaskFailure) and got[1] == 36


class TestTimeouts:
    def test_straggler_is_timed_out_and_retried(self, _fast_retry):
        install_fault_plan(FaultPlan(rules=(
            FaultRule(site="exec.task.pre", action="delay",
                      indices=(1,), param=5.0),
        )))
        before = REGISTRY.get("exec.timeouts")
        ex = make_executor(2, task_timeout_s=0.4, retry=_fast_retry)
        got = ex.map(_square, [1, 2, 3])
        assert got == [1, 4, 9]
        assert REGISTRY.get("exec.timeouts") > before
        assert stray_processes() == []

    def test_persistent_hang_raises_timeout(self):
        install_fault_plan(FaultPlan(rules=(
            FaultRule(site="exec.task.pre", action="delay",
                      indices=(0,), attempts=None, param=5.0),
        )))
        ex = make_executor(
            2,
            task_timeout_s=0.3,
            retry=RetryPolicy(max_retries=0, base_delay_s=0.01),
        )
        with pytest.raises(TaskTimeoutError):
            ex.map(_square, [1, 2])
        assert ex._pool is None
        assert stray_processes() == []


class TestOnResult:
    def test_on_result_fires_in_order(self):
        seen = []
        ex = make_executor(2)
        try:
            got = ex.map(
                _square, [1, 2, 3, 4], on_result=lambda i, v: seen.append((i, v))
            )
        finally:
            ex.close()
        assert got == [1, 4, 9, 16]
        assert seen == [(0, 1), (1, 4), (2, 9), (3, 16)]

    def test_on_result_serial(self):
        seen = []
        ex = ChunkExecutor(workers=1)
        got = ex.map(_square, [2, 3], on_result=lambda i, v: seen.append(i))
        assert got == [4, 9] and seen == [0, 1]
