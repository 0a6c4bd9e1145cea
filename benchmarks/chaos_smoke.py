"""Deterministic chaos smoke: inject faults, assert nothing bends.

CI's ``chaos-smoke`` job runs this script.  Each scenario installs a
seeded :class:`~repro.resilience.faults.FaultPlan`, drives a small
pinned workload through it, and asserts the resilience invariants:

* whenever a run completes, its results are **bit-identical** to the
  fault-free run (retries re-execute pure functions of the task index);
* no pool worker or ``multiprocessing`` resource tracker outlives a
  ``map``, no pool deadlocks (the whole script has a bounded runtime —
  a hang is a failure by timeout);
* quarantine converts a poison task into a flagged slot, never an
  aborted grid;
* a torn manifest is *rejected loudly* by the loader;
* an overloaded server sheds instead of hanging, and a client retries
  through a dropped connection to the same answer.

Usage::

    PYTHONPATH=src python benchmarks/chaos_smoke.py

Exit status: 0 = every scenario held, 1 = first broken invariant.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import socket
import sys
import threading
import time
from multiprocessing import resource_tracker

import numpy as np

from repro.core.search import obfuscate
from repro.graphs.generators import erdos_renyi
from repro.exec import ChunkExecutor, TaskFailure, make_executor
from repro.obs.metrics import REGISTRY
from repro.obs.manifest import build_manifest, load_manifest, write_manifest
from repro.resilience import (
    FaultInjected,
    FaultPlan,
    FaultRule,
    RetryPolicy,
    install_fault_plan,
)
from repro.serve import ObfuscationServer, QueryEngine, ServeClient

FAST_RETRY = RetryPolicy(max_retries=3, base_delay_s=0.01, max_delay_s=0.05)


def _draw(seed, shared=None):
    return np.random.default_rng(seed).random(64)


def _strays() -> list[str]:
    """Processes a returned or raised ``map`` must not leave running."""
    strays = [f"child {p.pid}" for p in multiprocessing.active_children()]
    if resource_tracker._resource_tracker._fd is not None:
        strays.append("resource tracker")
    return strays


def _check(name: str, ok: bool, detail: str = "") -> bool:
    print(f"{'ok' if ok else 'FAIL':>6}  {name}" + (f": {detail}" if detail else ""))
    return ok


def scenario_worker_kill() -> bool:
    """SIGKILL one worker mid-map: retry completes bit-identically."""
    seeds = list(range(12))
    install_fault_plan(None)
    expected = [_draw(s) for s in seeds]
    install_fault_plan(FaultPlan(seed=1, rules=(
        FaultRule(site="exec.task.pre", action="kill", indices=(4,)),
    )))
    ex = make_executor(2, retry=FAST_RETRY)
    try:
        got = ex.map(_draw, seeds)
        strays = _strays()
    finally:
        ex.close()
        install_fault_plan(None)
    identical = all(np.array_equal(g, e) for g, e in zip(got, expected))
    deaths = REGISTRY.get("exec.worker_deaths")
    return _check(
        "worker kill → bit-identical retry",
        identical and deaths >= 1 and not strays,
        f"worker_deaths={deaths} strays={strays}",
    )


def scenario_transient_error() -> bool:
    """A first-attempt-only injected exception: retried transparently."""
    seeds = list(range(8))
    install_fault_plan(None)
    expected = [_draw(s) for s in seeds]
    install_fault_plan(FaultPlan(seed=2, rules=(
        FaultRule(site="exec.task.post", action="raise", indices=(2, 5)),
    )))
    ex = make_executor(2, retry=FAST_RETRY)
    try:
        got = ex.map(_draw, seeds)
        strays = _strays()
    finally:
        ex.close()
        install_fault_plan(None)
    identical = all(np.array_equal(g, e) for g, e in zip(got, expected))
    return _check(
        "transient error → bit-identical retry",
        identical and not strays,
        f"strays={strays}",
    )


def scenario_straggler_timeout() -> bool:
    """A 10s injected stall against a 0.5s watchdog: respawn + retry."""
    seeds = list(range(6))
    install_fault_plan(None)
    expected = [_draw(s) for s in seeds]
    install_fault_plan(FaultPlan(seed=3, rules=(
        FaultRule(site="exec.task.pre", action="delay", indices=(1,), param=10.0),
    )))
    ex = make_executor(2, task_timeout_s=0.5, retry=FAST_RETRY)
    t0 = time.monotonic()
    try:
        got = ex.map(_draw, seeds)
        strays = _strays()
    finally:
        ex.close()
        install_fault_plan(None)
    elapsed = time.monotonic() - t0
    identical = all(np.array_equal(g, e) for g, e in zip(got, expected))
    return _check(
        "straggler timeout → respawn, no hang",
        identical and elapsed < 8.0 and REGISTRY.get("exec.timeouts") >= 1
        and not strays,
        f"{elapsed:.1f}s strays={strays}",
    )


def scenario_poison_quarantine() -> bool:
    """A task that fails every attempt: flagged slot, grid survives."""
    install_fault_plan(FaultPlan(seed=4, rules=(
        FaultRule(site="exec.task.pre", action="raise",
                  indices=(3,), attempts=None),
    )))
    ex = make_executor(
        2, retry=RetryPolicy(max_retries=1, base_delay_s=0.01), quarantine=True
    )
    try:
        got = ex.map(_draw, list(range(6)))
        strays = _strays()
    finally:
        ex.close()
        install_fault_plan(None)
    poisoned = isinstance(got[3], TaskFailure)
    others_fine = all(
        np.array_equal(got[i], _draw(i)) for i in range(6) if i != 3
    )
    return _check(
        "poison task → quarantined, siblings unharmed",
        poisoned and others_fine and REGISTRY.get("exec.poisoned") >= 1
        and not strays,
        f"strays={strays}",
    )


def scenario_torn_manifest(tmp_dir) -> bool:
    """A torn (pre-atomic-style) manifest write is rejected loudly."""
    path = tmp_dir / "manifest.json"
    manifest = build_manifest("chaos", config={"x": 1}, seed=0, elapsed_s=0.0)
    install_fault_plan(FaultPlan(seed=5, rules=(
        FaultRule(site="io.atomic.truncate", key="manifest.json",
                  action="flag", attempts=None, times=1),
    )))
    try:
        try:
            write_manifest(path, manifest)
            return _check("torn manifest", False, "fault did not fire")
        except FaultInjected:
            pass
    finally:
        install_fault_plan(None)
    try:
        load_manifest(path)
        return _check("torn manifest", False, "partial manifest accepted")
    except ValueError as exc:
        rejected = "truncated or corrupt" in str(exc)
    # The atomic rewrite then repairs it.
    write_manifest(path, manifest)
    repaired = load_manifest(path)["command"] == "chaos"
    return _check("torn manifest → rejected loudly, atomic rewrite repairs",
                  rejected and repaired)


class _ServerHarness:
    def __init__(self, server: ObfuscationServer):
        self.server = server
        self.loop = asyncio.new_event_loop()
        started = threading.Event()

        def run():
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(server.start())
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()
        started.wait(10)

    def stop(self):
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self.loop
        ).result(30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)


def _release():
    graph = erdos_renyi(30, 0.15, seed=3)
    result = obfuscate(graph, k=3, eps=0.25, seed=9, attempts=2, delta=0.05)
    assert result.success
    return result.uncertain


class _GatedEngine:
    def __init__(self, inner, gate):
        self._inner = inner
        self._gate = gate

    def execute(self, queries):
        self._gate.wait(30)
        return self._inner.execute(queries)


def scenario_serve_overload(release) -> bool:
    """A saturated bounded queue sheds with retry hints, never hangs."""
    gate = threading.Event()
    engine = _GatedEngine(QueryEngine(release, worlds=8, seed=99), gate)
    harness = _ServerHarness(
        ObfuscationServer(engine, port=0, window_ms=0.0, max_queue=2)
    )
    try:
        with socket.create_connection(
            (harness.server.host, harness.server.port), timeout=10
        ) as sock:
            fh = sock.makefile("rb")
            sock.sendall(b'{"id": 0, "op": "degree", "source": 0}\n')
            time.sleep(0.3)  # let it stall the window
            t0 = time.monotonic()
            sock.sendall(b"".join(
                json.dumps({"id": i, "op": "degree", "source": 0}).encode()
                + b"\n"
                for i in range(1, 8)
            ))
            sheds = 0
            for _ in range(7 - 2):
                resp = json.loads(fh.readline())
                if resp["ok"] is False and resp["error"] == "overloaded":
                    sheds += 1
            fast = time.monotonic() - t0 < 5.0
        with ServeClient(
            harness.server.host, harness.server.port, retries=0, timeout=10.0
        ) as client:
            health_ok = client.health()["ready"] is False
    finally:
        gate.set()
        harness.stop()
    return _check(
        "serve overload → immediate sheds, health live",
        sheds == 5 and fast and health_ok,
        f"sheds={sheds}",
    )


def scenario_conn_drop(release) -> bool:
    """A mid-line connection drop: client reconnects to the same answer."""
    engine = QueryEngine(release, worlds=8, seed=99)
    from repro.serve import Query

    oracle = engine.execute_one(Query(op="degree", source=0))["result"]["value"]
    harness = _ServerHarness(ObfuscationServer(engine, port=0))
    install_fault_plan(FaultPlan(seed=6, rules=(
        FaultRule(site="serve.conn.drop", action="flag",
                  attempts=None, times=1),
    )))
    try:
        with ServeClient(
            harness.server.host,
            harness.server.port,
            retries=3,
            timeout=10.0,
            retry_policy=FAST_RETRY,
        ) as client:
            got = client.request("degree", source=0)["value"]
    finally:
        install_fault_plan(None)
        harness.stop()
    return _check("connection drop → client retry, same answer", got == oracle)


def main() -> int:
    import tempfile
    from pathlib import Path

    t0 = time.monotonic()
    release = _release()
    ok = True
    ok &= scenario_worker_kill()
    ok &= scenario_transient_error()
    ok &= scenario_straggler_timeout()
    ok &= scenario_poison_quarantine()
    with tempfile.TemporaryDirectory() as tmp:
        ok &= scenario_torn_manifest(Path(tmp))
    ok &= scenario_serve_overload(release)
    ok &= scenario_conn_drop(release)
    ok &= _check("no stray process at exit", _strays() == [], str(_strays()))
    print(f"\nchaos smoke {'passed' if ok else 'FAILED'} "
          f"in {time.monotonic() - t0:.1f}s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
