"""Perf regression gate: committed speedup floors must hold within 15%.

The speedup CSVs under ``benchmarks/results/`` are committed artifacts —
each records the measured batched-vs-sequential ratio of one pinned
workload.  After a fresh benchmark run rewrites them in the working
tree, this script compares every pinned ratio against the version
committed at ``HEAD`` and fails (exit 1) if a fresh ratio fell below
``committed / TOLERANCE`` — a >15% regression of a workload the repo
explicitly optimised.  Speedup *ratios* are compared rather than raw
seconds because ratios cancel machine speed, which is what makes the
gate meaningful on heterogeneous CI runners.

Usage (after running the benchmark suite so the CSVs are fresh)::

    python benchmarks/perf_gate.py

A second mode gates the observability layer itself::

    PYTHONPATH=src python benchmarks/perf_gate.py --trace-overhead

runs a pinned seeded obfuscation search (the posterior-heavy workload
that carries the densest span instrumentation) with tracing enabled and
disabled, interleaved best-of-N, and fails if the enabled/disabled
wall-clock ratio exceeds ``TRACE_OVERHEAD_BUDGET`` (5%).  The always-on
metric counters are identical in both runs, so the ratio isolates the
cost of live spans — the thing ``repro.obs`` promises is phase-level
cheap.

Exit status: 0 = all floors hold, 1 = regression (or a gated file/row
is missing, which would otherwise silently disable the gate).
"""

from __future__ import annotations

import argparse
import csv
import io
import subprocess
import sys
import time
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"
REPO_ROOT = Path(__file__).parent.parent

#: Fresh ratio may be at worst committed/1.15 (a 15% regression).
TOLERANCE = 1.15

#: Tracing-enabled wall clock may be at worst 1.05x the disabled run.
TRACE_OVERHEAD_BUDGET = 1.05

#: With fault hooks present but no plan firing, wall clock may be at
#: worst 1.05x a run on the same code path — the fault sites promise to
#: be one module-global read when disarmed.
FAULT_OVERHEAD_BUDGET = 1.05

#: Sharded world evaluation at 2 workers must beat serial by this factor
#: on the smoke grid (skipped on single-core hosts, where the process
#: backend cannot physically win).
EXEC_SPEEDUP_FLOOR = 1.6

#: (csv name, row-match predicate fields, ratio column) per pinned workload.
GATES: list[tuple[str, dict[str, str], str]] = [
    ("worlds_speedup.csv", {"backend": "batched"}, "speedup"),
    ("obfuscation_speedup.csv", {"k": "all"}, "speedup"),
    ("table6_speedup.csv", {"backend": "batched"}, "speedup"),
]


def _rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _match(rows: list[dict[str, str]], where: dict[str, str]) -> dict[str, str] | None:
    for row in rows:
        if all(row.get(col) == value for col, value in where.items()):
            return row
    return None


def _committed(name: str) -> str | None:
    proc = subprocess.run(
        ["git", "show", f"HEAD:benchmarks/results/{name}"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    return proc.stdout if proc.returncode == 0 else None


def trace_overhead(rounds: int = 5) -> int:
    """Gate the cost of live tracing on the pinned posterior workload.

    Requires ``PYTHONPATH=src`` (imports the library).  The workload is
    a fully seeded Algorithm-1 search on a dblp-like surrogate — every
    probe opens a span and the posterior kernels feed the always-on
    registry, so an enabled run exercises the instrumentation exactly
    as ``repro obfuscate --trace`` would.  Enabled and disabled runs
    are interleaved and the best (minimum) of ``rounds`` is compared,
    which cancels warm-up and machine-load drift.
    """
    from repro.core.search import obfuscate
    from repro.graphs.datasets import dblp_like
    from repro.obs.trace import disable_tracing, enable_tracing, tracing_enabled

    if tracing_enabled():  # a live tracer would contaminate the "off" half
        disable_tracing()
    graph = dblp_like(scale=0.15, seed=0)

    def run() -> None:
        obfuscate(graph, k=10, eps=0.1, seed=0, attempts=2, delta=0.05)

    run()  # warm-up: dataset caches, first-touch allocations, JIT-free but honest
    best_off = best_on = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        run()
        best_off = min(best_off, time.perf_counter() - t0)
        enable_tracing(None)  # in-memory tracer: spans live, no file I/O
        try:
            t0 = time.perf_counter()
            run()
            best_on = min(best_on, time.perf_counter() - t0)
        finally:
            disable_tracing()
    ratio = best_on / best_off
    verdict = "ok" if ratio <= TRACE_OVERHEAD_BUDGET else "REGRESSION"
    print(
        f"{verdict:>10}  trace overhead: enabled {best_on * 1e3:.1f} ms "
        f"vs disabled {best_off * 1e3:.1f} ms "
        f"(ratio {ratio:.3f}, budget {TRACE_OVERHEAD_BUDGET:.2f})"
    )
    if ratio > TRACE_OVERHEAD_BUDGET:
        print(
            f"trace overhead gate FAILED: span instrumentation costs "
            f"{(ratio - 1) * 100:.1f}% (> {(TRACE_OVERHEAD_BUDGET - 1) * 100:.0f}%)",
            file=sys.stderr,
        )
        return 1
    print(f"\ntrace overhead gate passed (best of {rounds})")
    return 0


def fault_overhead(rounds: int = 5) -> int:
    """Gate the disarmed cost of the fault-injection sites.

    Requires ``PYTHONPATH=src``.  Runs the pinned obfuscation workload
    twice per round, interleaved best-of-N: once with no fault plan at
    all, once with a plan *installed* whose single rule can never fire
    (a site name nothing calls).  The installed-but-inert case is the
    worst production-relevant path — every ``fault_point`` call walks
    its rule list — and the gate pins it at ≤5% over the no-plan path.
    """
    from repro.core.search import obfuscate
    from repro.graphs.datasets import dblp_like
    from repro.resilience import FaultPlan, FaultRule, install_fault_plan

    graph = dblp_like(scale=0.15, seed=0)
    inert_plan = FaultPlan(rules=(
        FaultRule(site="never.fires", action="flag", attempts=None),
    ))

    def run() -> None:
        obfuscate(graph, k=10, eps=0.1, seed=0, attempts=2, delta=0.05)

    install_fault_plan(None)
    run()  # warm-up
    best_off = best_on = float("inf")
    try:
        for _ in range(rounds):
            install_fault_plan(None)
            t0 = time.perf_counter()
            run()
            best_off = min(best_off, time.perf_counter() - t0)
            install_fault_plan(inert_plan)
            t0 = time.perf_counter()
            run()
            best_on = min(best_on, time.perf_counter() - t0)
    finally:
        install_fault_plan(None)
    ratio = best_on / best_off
    verdict = "ok" if ratio <= FAULT_OVERHEAD_BUDGET else "REGRESSION"
    print(
        f"{verdict:>10}  fault-hook overhead: inert plan {best_on * 1e3:.1f} ms "
        f"vs no plan {best_off * 1e3:.1f} ms "
        f"(ratio {ratio:.3f}, budget {FAULT_OVERHEAD_BUDGET:.2f})"
    )
    if ratio > FAULT_OVERHEAD_BUDGET:
        print(
            f"fault overhead gate FAILED: disarmed fault sites cost "
            f"{(ratio - 1) * 100:.1f}% (> {(FAULT_OVERHEAD_BUDGET - 1) * 100:.0f}%)",
            file=sys.stderr,
        )
        return 1
    print(f"\nfault overhead gate passed (best of {rounds})")
    return 0


def exec_speedup(rounds: int = 3, workers: int = 2) -> int:
    """Gate the process backend: sharded world evaluation must win.

    Requires ``PYTHONPATH=src``.  The workload is the smoke grid's
    heavy phase — evaluating the ten paper statistics over sampled
    possible worlds of an obfuscated dblp surrogate — run serial and
    through a ``workers``-process :class:`~repro.exec.ChunkExecutor`
    (pool reused across rounds, so fork cost amortises as in real
    drivers), interleaved best-of-N.  Fails when the serial/sharded
    wall-clock ratio falls below :data:`EXEC_SPEEDUP_FLOOR`; also
    asserts the two runs' per-world values are bit-identical, so a
    "win" can never come from computing something else.

    On a single-core host the gate *skips* (exit 0): two processes on
    one core cannot beat serial, and a red gate there would only
    report the machine shape, not a regression.
    """
    import os

    cpus = os.cpu_count() or 1
    if cpus < 2:
        print(
            f"exec speedup gate SKIPPED: host has {cpus} CPU core(s); "
            f"a {workers}-worker pool cannot outrun serial here"
        )
        return 0

    import numpy as np

    from repro.core.search import obfuscate
    from repro.exec import ChunkExecutor
    from repro.graphs.datasets import dblp_like
    from repro.worlds.estimator import WorldStatisticsEstimator

    graph = dblp_like(scale=0.15, seed=0)
    release = obfuscate(graph, k=10, eps=0.1, seed=0, attempts=2, delta=0.05)
    assert release.success
    unc = release.uncertain
    worlds, seed = 96, 7

    def run(estimator):
        return estimator.run(worlds=worlds, seed=seed)

    serial = WorldStatisticsEstimator(unc, distance_seed=0)
    with ChunkExecutor(backend="process", workers=workers) as ex:
        sharded = WorldStatisticsEstimator(
            unc, distance_seed=0, executor=ex
        )
        out_serial = run(serial)  # warm-up + reference values
        out_sharded = run(sharded)  # warm-up: forks the pool
        for name in out_serial:
            if not np.array_equal(
                out_serial[name].values, out_sharded[name].values
            ):
                print(
                    f"exec speedup gate FAILED: sharded values diverge "
                    f"from serial for {name!r}",
                    file=sys.stderr,
                )
                return 1
        best_serial = best_sharded = float("inf")
        for _ in range(rounds):
            t0 = time.perf_counter()
            run(serial)
            best_serial = min(best_serial, time.perf_counter() - t0)
            t0 = time.perf_counter()
            run(sharded)
            best_sharded = min(best_sharded, time.perf_counter() - t0)
    ratio = best_serial / best_sharded
    verdict = "ok" if ratio >= EXEC_SPEEDUP_FLOOR else "REGRESSION"
    print(
        f"{verdict:>10}  exec speedup: serial {best_serial * 1e3:.0f} ms vs "
        f"{workers}-worker {best_sharded * 1e3:.0f} ms "
        f"(ratio {ratio:.2f}, floor {EXEC_SPEEDUP_FLOOR:.2f}, "
        f"{cpus} cores)"
    )
    if ratio < EXEC_SPEEDUP_FLOOR:
        print(
            f"exec speedup gate FAILED: {workers}-worker sharding wins only "
            f"{ratio:.2f}x (< {EXEC_SPEEDUP_FLOOR:.2f}x)",
            file=sys.stderr,
        )
        return 1
    print(f"\nexec speedup gate passed (best of {rounds})")
    return 0


def main() -> int:
    failures: list[str] = []
    checked = 0
    for name, where, column in GATES:
        label = f"{name} {where}"
        committed_text = _committed(name)
        if committed_text is None:
            failures.append(f"{label}: no committed baseline at HEAD")
            continue
        baseline_row = _match(_rows(committed_text), where)
        if baseline_row is None or not baseline_row.get(column):
            failures.append(f"{label}: pinned row missing from committed CSV")
            continue
        fresh_path = RESULTS_DIR / name
        if not fresh_path.exists():
            failures.append(f"{label}: fresh CSV missing (run the benchmarks first)")
            continue
        fresh_row = _match(_rows(fresh_path.read_text()), where)
        if fresh_row is None or not fresh_row.get(column):
            failures.append(f"{label}: pinned row missing from fresh CSV")
            continue
        committed = float(baseline_row[column])
        fresh = float(fresh_row[column])
        floor = committed / TOLERANCE
        verdict = "ok" if fresh >= floor else "REGRESSION"
        print(
            f"{verdict:>10}  {name} {where}: fresh {column}={fresh:.2f} "
            f"vs committed {committed:.2f} (floor {floor:.2f})"
        )
        if fresh < floor:
            failures.append(
                f"{label}: {column} {fresh:.2f} < floor {floor:.2f} "
                f"(committed {committed:.2f}, >15% regression)"
            )
        checked += 1
    if failures:
        print(f"\nperf gate FAILED ({len(failures)} problem(s)):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nperf gate passed: {checked} pinned workloads within {TOLERANCE}x")
    return 0


if __name__ == "__main__":
    _parser = argparse.ArgumentParser(description="perf + trace-overhead gates")
    _parser.add_argument(
        "--trace-overhead",
        action="store_true",
        help="gate live-tracing overhead instead of the CSV ratio floors",
    )
    _parser.add_argument(
        "--fault-overhead",
        action="store_true",
        help="gate the disarmed cost of fault-injection sites (≤5%%)",
    )
    _parser.add_argument(
        "--exec-speedup",
        action="store_true",
        help="gate sharded-vs-serial world evaluation (skips on 1-core hosts)",
    )
    _parser.add_argument(
        "--workers", type=int, default=2, help="pool size (exec mode)"
    )
    _parser.add_argument(
        "--rounds", type=int, default=5, help="best-of-N rounds (trace/exec modes)"
    )
    _args = _parser.parse_args()
    if _args.trace_overhead:
        sys.exit(trace_overhead(_args.rounds))
    if _args.fault_overhead:
        sys.exit(fault_overhead(_args.rounds))
    if _args.exec_speedup:
        sys.exit(exec_speedup(min(_args.rounds, 3), _args.workers))
    sys.exit(main())
