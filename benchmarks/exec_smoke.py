"""CI smoke test for the sharded execution layer (``repro.exec``).

Runs the pinned dblp-surrogate grid twice — serial and through a
2-worker process-pool :class:`~repro.exec.ChunkExecutor` — and checks
the two contracts the executor pins:

1. **Bit identity**: every Table-2 sweep cell (σ, ε used, the full
   obfuscated edge/probability arrays) and every world-statistic array
   is byte-identical between the serial and sharded runs at equal
   seeds.  Parallelism is an implementation detail, never a result.
2. **Clean lifecycle**: every ``map`` joins the pool it forked, so no
   child process and no ``multiprocessing`` resource tracker is left
   running afterwards, and worker metrics merged back into the parent
   registry.

Timings for both runs are recorded into
``benchmarks/results/exec_speedup.csv`` with the host's ``cpu_count``
so a 1-core CI runner's "slowdown" is legible as a machine shape, not
a regression — the pass/fail criterion here is identity, not speed
(speed is gated separately by ``perf_gate.py --exec-speedup``, which
skips on single-core hosts).

Usage::

    PYTHONPATH=src python benchmarks/exec_smoke.py [--workers 2]

Exit status: 0 = identity + lifecycle hold, 1 = first violated
contract (printed to stderr).
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import sys
import time
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np

from repro.exec import ChunkExecutor
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import run_obfuscation_sweep
from repro.experiments.report import save_csv
from repro.obs import REGISTRY
from repro.worlds.estimator import WorldStatisticsEstimator

RESULTS_DIR = Path(__file__).parent / "results"

SCALE = float(os.environ.get("REPRO_EXEC_SMOKE_SCALE", "0.1"))
WORLDS = int(os.environ.get("REPRO_EXEC_SMOKE_WORLDS", "24"))


def fail(message: str) -> None:
    print(f"exec smoke FAILED: {message}", file=sys.stderr)
    raise SystemExit(1)


def _strays() -> list[str]:
    """Processes a finished ``map`` must not leave running."""
    strays = [f"child {p.pid}" for p in multiprocessing.active_children()]
    if resource_tracker._resource_tracker._fd is not None:
        strays.append("resource tracker")
    return strays


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()

    config = ExperimentConfig(
        datasets=("dblp",),
        scale=SCALE,
        k_values=(20,),
        eps_values=(1e-3,),
        worlds=WORLDS,
        attempts=2,
        delta=0.05,
        seed=0,
    )
    cpus = os.cpu_count() or 1
    print(f"grid: dblp scale={SCALE} k=20 eps=1e-3, "
          f"{args.workers} workers on {cpus} core(s)")

    # --- Table-2 sweep: serial vs sharded cells -------------------------
    t0 = time.perf_counter()
    serial_sweep = run_obfuscation_sweep(config)
    t_sweep_serial = time.perf_counter() - t0

    with ChunkExecutor(backend="process", workers=args.workers) as ex:
        t0 = time.perf_counter()
        sharded_sweep = run_obfuscation_sweep(config, executor=ex)
        t_sweep_sharded = time.perf_counter() - t0

        if len(serial_sweep) != len(sharded_sweep):
            fail("sweep cell counts differ")
        for a, b in zip(serial_sweep, sharded_sweep):
            if (a.dataset, a.k, a.paper_eps) != (b.dataset, b.k, b.paper_eps):
                fail("sweep cell order differs")
            if a.result.success != b.result.success:
                fail(f"cell ({a.dataset},{a.k},{a.paper_eps}): success differs")
            if not a.result.success:
                continue
            if a.result.sigma != b.result.sigma:
                fail(f"cell ({a.dataset},{a.k},{a.paper_eps}): sigma differs "
                     f"({a.result.sigma} vs {b.result.sigma})")
            ua, ub = a.result.uncertain.pair_arrays(), b.result.uncertain.pair_arrays()
            if not all(np.array_equal(x, y) for x, y in zip(ua, ub)):
                fail(f"cell ({a.dataset},{a.k},{a.paper_eps}): "
                     "obfuscated edge arrays differ")
        print(f"table2: {len(serial_sweep)} cells bit-identical "
              f"(serial {t_sweep_serial:.1f}s, sharded {t_sweep_sharded:.1f}s)")

        # --- World statistics: serial vs sharded chunks -----------------
        entry = next(e for e in serial_sweep if e.result.success)
        unc = entry.result.uncertain
        serial_est = WorldStatisticsEstimator(unc)
        sharded_est = WorldStatisticsEstimator(unc, executor=ex)
        t0 = time.perf_counter()
        out_serial = serial_est.run(worlds=WORLDS, seed=7)
        t_worlds_serial = time.perf_counter() - t0
        t0 = time.perf_counter()
        out_sharded = sharded_est.run(worlds=WORLDS, seed=7)
        t_worlds_sharded = time.perf_counter() - t0

        if set(out_serial) != set(out_sharded):
            fail("world-statistic names differ")
        for name in out_serial:
            if not np.array_equal(out_serial[name].values,
                                  out_sharded[name].values):
                fail(f"world statistic {name!r} diverges between "
                     "serial and sharded runs")
        print(f"worlds: {len(out_serial)} statistics x {WORLDS} worlds "
              f"bit-identical (serial {t_worlds_serial:.1f}s, "
              f"sharded {t_worlds_sharded:.1f}s)")

        # Worker-side kernel metrics must have merged back into the parent.
        dump = REGISTRY.dump()
        if not any(k.startswith("worlds.") and v for k, v in dump.items()):
            fail("no worlds.* metrics in parent registry after sharded run "
                 "(worker dumps were not merged)")
        print("metrics: worker counters merged into parent registry")

    strays = _strays()
    if strays:
        fail(f"processes left running after the maps: {strays}")
    print("lifecycle: every pool joined, no child or resource tracker left")

    rows = [
        {
            "phase": "table2_sweep",
            "workers": args.workers,
            "cpu_count": cpus,
            "scale": SCALE,
            "serial_sec": round(t_sweep_serial, 3),
            "sharded_sec": round(t_sweep_sharded, 3),
            "speedup": round(t_sweep_serial / t_sweep_sharded, 3),
            "identical": True,
        },
        {
            "phase": "world_stats",
            "workers": args.workers,
            "cpu_count": cpus,
            "scale": SCALE,
            "serial_sec": round(t_worlds_serial, 3),
            "sharded_sec": round(t_worlds_sharded, 3),
            "speedup": round(t_worlds_serial / t_worlds_sharded, 3),
            "identical": True,
        },
    ]
    RESULTS_DIR.mkdir(exist_ok=True)
    save_csv(rows, RESULTS_DIR / "exec_speedup.csv")
    print(f"\nexec smoke passed: bit identity at {args.workers} workers, "
          f"clean shutdown; wrote results/exec_speedup.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
