"""Table 2 + Table 4 end-to-end at the paper's real dblp scale.

The laptop benchmarks run 1/50th-size surrogates; this runner drives the
same sweep on a :func:`repro.graphs.datasets.paper_scale_dataset` graph —
dblp at ``scale=1.0`` is n = 226,413 vertices, the paper's actual Table-1
size — and records wall-clock plus peak RSS per phase into
``benchmarks/results/paper_scale.csv``.  It exists because PR 6 removed
the two quadratic walls (Lemma-1 staircase, worlds-union re-sort) that
made this size unreachable; the CSV is the receipt.

Usage::

    PYTHONPATH=src python benchmarks/run_paper_scale.py             # full n=226k
    PYTHONPATH=src python benchmarks/run_paper_scale.py --smoke     # n≈22.6k CI job

``--smoke`` runs the pinned CI subset: scale 0.1 (n ≈ 22.6k), the
(k = 20, ε = 10⁻³) Table-2 cell and a reduced world count, writing
``paper_scale_smoke.csv`` instead so the committed full-scale numbers
are never overwritten by a CI run.

Interruptibility: with ``--checkpoint DIR`` every finished grid cell is
persisted atomically the moment it completes, SIGINT/SIGTERM exit
cleanly with a resume hint, and ``--resume`` skips the recorded cells —
producing a ``<stem>_results.csv`` byte-identical to an uninterrupted
run (the main CSV keeps wall-clock columns and is therefore excluded
from the byte-identity contract).
"""

from __future__ import annotations

import argparse
import signal
import sys
import time
from pathlib import Path

from repro.resilience import CheckpointStore

from repro.exec import make_executor
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import (
    run_obfuscation_sweep,
    table2_rows,
    table4_rows,
)
from repro.experiments.report import render_table, save_csv
from repro.graphs.datasets import paper_scale_dataset
from repro.obs import (
    build_manifest,
    disable_tracing,
    enable_tracing,
    peak_rss_mb,
    span,
    write_manifest,
)

RESULTS_DIR = Path(__file__).parent / "results"
DEFAULT_CACHE = Path(__file__).parent / "cache"


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI subset: scale 0.1, k=20, eps=1e-3, fewer worlds",
    )
    parser.add_argument("--scale", type=float, default=None,
                        help="fraction of the paper's n (default 1.0, smoke 0.1)")
    parser.add_argument("--worlds", type=int, default=None,
                        help="worlds per Table-4 cell (default 100, smoke 20)")
    parser.add_argument("--k", type=int, nargs="+", default=None,
                        help="k grid (default 20 60 100, smoke 20)")
    parser.add_argument("--eps", type=float, nargs="+", default=None,
                        help="paper eps grid (default 1e-3 1e-4, smoke 1e-3)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1,
                        help="processes for sweep cells and world evaluation "
                        "(0 = all cores); tables are bit-identical at any "
                        "worker count")
    parser.add_argument("--cache-dir", type=Path, default=DEFAULT_CACHE,
                        help="dataset .npz cache directory")
    parser.add_argument("--out", type=Path, default=None,
                        help="output CSV (default results/paper_scale[_smoke].csv)")
    parser.add_argument("--checkpoint", type=Path, default=None,
                        help="directory for atomic per-cell checkpoint records")
    parser.add_argument("--resume", action="store_true",
                        help="skip cells already recorded in --checkpoint "
                        "(byte-identical outputs to an uninterrupted run)")
    parser.add_argument("--task-timeout", type=float, default=None,
                        help="per-cell wall-clock budget (seconds) before the "
                        "hung-worker watchdog respawns the pool and retries")
    args = parser.parse_args()
    if args.resume and args.checkpoint is None:
        parser.error("--resume requires --checkpoint")
    return args


def main() -> int:
    args = parse_args()
    scale = args.scale if args.scale is not None else (0.1 if args.smoke else 1.0)
    worlds = args.worlds if args.worlds is not None else (20 if args.smoke else 100)
    k_values = tuple(args.k) if args.k else ((20,) if args.smoke else (20, 60, 100))
    eps_values = (
        tuple(args.eps) if args.eps else ((1e-3,) if args.smoke else (1e-3, 1e-4))
    )
    out = args.out or RESULTS_DIR / (
        "paper_scale_smoke.csv" if args.smoke else "paper_scale.csv"
    )

    checkpoint = None
    restored_cells = 0
    if args.checkpoint is not None:
        checkpoint = CheckpointStore(args.checkpoint)
        try:
            checkpoint.begin(
                {
                    "command": "run_paper_scale",
                    "dataset": "dblp",
                    "scale": scale,
                    "worlds": worlds,
                    "k_values": list(k_values),
                    "eps_values": list(eps_values),
                    "seed": args.seed,
                },
                resume=args.resume,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        restored_cells = len(checkpoint)
        if args.resume and restored_cells:
            print(f"resuming: {restored_cells} cell(s) restored from {args.checkpoint}")

    # SIGTERM behaves like SIGINT: the per-cell checkpoint records are
    # already flushed atomically as cells complete, so a clean unwind
    # (the running map terminates and joins its pool) is all the handler
    # needs to trigger.
    def _sigterm(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _sigterm)

    try:
        return _run(args, scale, worlds, k_values, eps_values, out, checkpoint, restored_cells)
    except KeyboardInterrupt:
        disable_tracing()
        print("", file=sys.stderr)
        if checkpoint is not None:
            print(
                f"interrupted; {len(checkpoint)} cell(s) checkpointed under "
                f"{args.checkpoint} — rerun with --resume to continue",
                file=sys.stderr,
            )
        else:
            print(
                "interrupted (no --checkpoint: a rerun starts from zero)",
                file=sys.stderr,
            )
        return 130


def _run(args, scale, worlds, k_values, eps_values, out, checkpoint, restored_cells) -> int:
    out.parent.mkdir(parents=True, exist_ok=True)
    tracer = enable_tracing(out.parent / (out.stem + "_trace.jsonl"))
    t0 = time.perf_counter()
    with span("graph", dataset="dblp", scale=scale) as sp_graph:
        graph = paper_scale_dataset(
            "dblp", scale=scale, seed=args.seed, cache_dir=args.cache_dir
        )
    t_graph = sp_graph.wall_s
    print(
        f"dblp @ scale {scale:g}: n={graph.num_vertices:,} m={graph.num_edges:,} "
        f"({t_graph:.1f}s, peak {peak_rss_mb():.0f} MiB)"
    )

    config = ExperimentConfig(
        datasets=("dblp",),
        scale=scale,
        k_values=k_values,
        eps_values=eps_values,
        worlds=worlds,
        seed=args.seed,
        dataset_seed=args.seed,
    )
    # Hand the paper-scale graph to the harness under its own cache key —
    # every runner (sweep, eps_for, utility) then sees the real-size
    # graph instead of building a laptop surrogate.
    config._graph_cache[("dblp", scale, args.seed)] = graph

    import os

    # Quarantine keeps a poisoned cell from aborting a 52-minute grid:
    # it lands as a flagged nan row and exec.poisoned in the manifest.
    executor = make_executor(
        args.workers, task_timeout_s=args.task_timeout, quarantine=True
    )
    rows: list[dict] = []
    meta = {
        "table": "meta",
        "dataset": "dblp",
        "scale": scale,
        "n": graph.num_vertices,
        "m": graph.num_edges,
        "worlds": worlds,
        "workers": executor.workers,
        "cpu_count": os.cpu_count() or 1,
        "graph_sec": round(t_graph, 2),
    }

    with span("table2", worlds=worlds) as sp_sweep:
        sweep = run_obfuscation_sweep(config, executor=executor, checkpoint=checkpoint)
    t_sweep = sp_sweep.wall_s
    meta["table2_sec"] = round(t_sweep, 2)
    meta["table2_peak_rss_mb"] = round(peak_rss_mb(), 1)
    t2_rows = table2_rows(sweep)
    print(render_table(t2_rows, title=f"Table 2 @ n={graph.num_vertices:,}"))
    print(f"[table2] {t_sweep:.1f}s, peak {peak_rss_mb():.0f} MiB")
    rows.extend({"table": "table2", "dataset": "dblp", **r} for r in t2_rows)

    with span("table4", worlds=worlds) as sp_util:
        utility_sweep = [e for e in sweep if e.paper_eps == min(eps_values)]
        t4_rows = table4_rows(
            utility_sweep, config, cache={}, executor=executor, checkpoint=checkpoint
        )
    t_util = sp_util.wall_s
    meta["table4_sec"] = round(t_util, 2)
    meta["table4_peak_rss_mb"] = round(peak_rss_mb(), 1)
    print(render_table(t4_rows, title=f"Table 4 @ n={graph.num_vertices:,}"))
    print(f"[table4] {t_util:.1f}s, peak {peak_rss_mb():.0f} MiB")
    rows.extend({"table": "table4", **r} for r in t4_rows)

    # The deterministic receipt: table rows only, no wall-clock columns —
    # this is the file the interrupted-then-resumed byte-identity pin
    # compares against an uninterrupted golden run.
    save_csv(rows, out.parent / (out.stem + "_results.csv"))

    meta["total_sec"] = round(time.perf_counter() - t0, 2)
    meta["peak_rss_mb"] = round(peak_rss_mb(), 1)
    meta["resumed"] = bool(args.resume)
    meta["cells_restored"] = restored_cells
    rows.append(meta)
    RESULTS_DIR.mkdir(exist_ok=True)
    save_csv(rows, out)
    executor.close()
    disable_tracing()
    manifest = build_manifest(
        "benchmarks/run_paper_scale.py",
        config={
            "dataset": "dblp",
            "scale": scale,
            "worlds": worlds,
            "k_values": list(k_values),
            "eps_values": list(eps_values),
            "smoke": bool(args.smoke),
            "workers": args.workers,
            "checkpoint": args.checkpoint,
            "resumed": bool(args.resume),
            "cells_restored": restored_cells,
            "task_timeout_s": args.task_timeout,
        },
        seed=args.seed,
        tracer=tracer,
        elapsed_s=meta["total_sec"],
        results=meta,
    )
    write_manifest(out.parent / (out.stem + "_manifest.json"), manifest)
    print(f"wrote {out} (total {meta['total_sec']}s, peak {meta['peak_rss_mb']} MiB)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
