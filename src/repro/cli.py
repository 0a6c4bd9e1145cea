"""Command-line interface: obfuscate, verify, analyse, sample.

Usage (also available as ``python -m repro``)::

    repro obfuscate --input graph.txt --k 20 --eps 0.05 --output release.txt
    repro verify    --original graph.txt --release release.txt --k 20 --eps 0.05
    repro stats     --release release.txt --worlds 100
    repro sample    --release release.txt --output world.txt --seed 7
    repro compare   --input graph.txt --p 0.3 --samples 50
    repro serve     --release release.txt --port 7687
    repro trace     run-dir/            # summarise a traced run

``graph.txt`` is a whitespace edge list (``u v`` per line, ``#``
comments); ``release.txt`` is the published uncertain graph (``u v p``
triples).  Every subcommand prints a short human-readable report to
stdout and exits non-zero on failure, so the tool composes in shell
pipelines.  An out-of-range ``--k``/``--eps``/``--c``/``--q``/
``--attempts``/``--delta`` exits 2 with a message on stderr before any
file is read.

Observability flags (after the subcommand name): ``-v``/``-vv`` for
progress logging on stderr, ``-q`` for errors only, and
``--trace [DIR]`` to record a span trace (``DIR/trace.jsonl``) plus a
schema-validated run manifest (``DIR/manifest.json``).  Tracing is
purely observational — a traced run's outputs are bit-identical to an
untraced one.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Sequence
from pathlib import Path

from repro.core.obfuscation_check import is_k_eps_obfuscation
from repro.core.search import obfuscate_with_fallback
from repro.core.types import ObfuscationParams
from repro.graphs.io import read_edge_list, write_edge_list
from repro.obs import (
    build_manifest,
    disable_tracing,
    enable_tracing,
    setup_logging,
    span,
    write_manifest,
)
from repro.stats.registry import paper_statistics
from repro.uncertain.io import read_uncertain_graph, write_uncertain_graph
from repro.uncertain.sampling import sample_world


def _positive_int(text: str) -> int:
    """argparse type for sample sizes: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Identity obfuscation by uncertainty injection "
            "(Boldi, Bonchi, Gionis, Tassa; VLDB 2012)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared observability flags.  Attached to the *subparsers* (not the
    # root) so their defaults cannot clobber root-level values — the
    # flags go after the subcommand name: ``repro obfuscate -v --trace``.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log progress to stderr (-vv for debug)",
    )
    common.add_argument(
        "-q", "--quiet", action="store_true", help="errors only"
    )
    common.add_argument(
        "--trace", dest="trace_dir", nargs="?", const="repro-trace",
        default=None, metavar="DIR",
        help="record DIR/trace.jsonl and DIR/manifest.json "
        "(default DIR: ./repro-trace)",
    )

    p = sub.add_parser(
        "obfuscate", parents=[common], help="compute a (k, eps)-obfuscation"
    )
    p.add_argument("--input", required=True, help="edge-list file of G")
    p.add_argument("--output", required=True, help="uncertain-graph output file")
    p.add_argument("--k", type=float, required=True, help="obfuscation level")
    p.add_argument("--eps", type=float, required=True, help="tolerance")
    p.add_argument("--c", type=float, default=2.0, help="candidate multiplier")
    p.add_argument("--q", type=float, default=0.01, help="white-noise level")
    p.add_argument("--attempts", type=int, default=5, help="tries per sigma")
    p.add_argument("--delta", type=float, default=1e-3, help="search precision")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--escalate-c",
        action="store_true",
        help="retry with c=3 then c=5 (those above --c) if the base c "
        "cannot bracket",
    )

    p = sub.add_parser("verify", parents=[common], help="check Definition 2 on a release")
    p.add_argument("--original", required=True, help="edge-list file of G")
    p.add_argument("--release", required=True, help="uncertain-graph file")
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)

    p = sub.add_parser("stats", parents=[common], help="statistics of a release by sampling")
    p.add_argument("--release", required=True, help="uncertain-graph file")
    p.add_argument("--worlds", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--backend",
        default="anf",
        choices=("anf", "exact", "sampled"),
        help="distance-statistic backend",
    )
    p.add_argument(
        "--workers", type=int, default=1,
        help="processes for world evaluation (0 = all cores; results "
        "are bit-identical at any worker count)",
    )

    p = sub.add_parser("sample", parents=[common], help="draw one possible world")
    p.add_argument("--release", required=True, help="uncertain-graph file")
    p.add_argument("--output", required=True, help="edge-list output file")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "compare",
        parents=[common],
        help="Table-6 style comparison against randomized baselines",
        description=(
            "Sample randomized releases (sparsification/perturbation) of "
            "the input graph, average the ten paper statistics over them "
            "and report each scheme's relative error vs the original.  "
            "Give --p directly, or --k/--eps to calibrate it per scheme."
        ),
    )
    p.add_argument("--input", required=True, help="edge-list file of G")
    p.add_argument(
        "--schemes",
        nargs="+",
        default=["sparsification", "perturbation"],
        choices=("sparsification", "perturbation"),
        help="randomization schemes to evaluate",
    )
    p.add_argument(
        "--p",
        type=float,
        default=None,
        help="removal probability; calibrated from --k/--eps when omitted",
    )
    p.add_argument("--k", type=float, default=None, help="calibration target k")
    p.add_argument("--eps", type=float, default=None, help="calibration tolerance")
    p.add_argument(
        "--samples", type=_positive_int, default=50,
        help="releases per scheme (paper: 50)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--backend",
        default="anf",
        choices=("anf", "exact", "sampled"),
        help="distance-statistic backend",
    )
    p.add_argument(
        "--workers", type=int, default=1,
        help="processes for release evaluation (0 = all cores; results "
        "are bit-identical at any worker count)",
    )

    p = sub.add_parser(
        "serve",
        parents=[common],
        help="serve queries over a published release (TCP line-JSON)",
        description=(
            "Load a published uncertain graph and answer degree / "
            "reliability / k-hop / distance-distribution / k-NN queries "
            "from concurrent clients, coalescing concurrent queries into "
            "shared possible-world batches.  Every answer is seed-pinned "
            "to the sequential estimators of repro.uncertain.queries."
        ),
    )
    p.add_argument("--release", required=True, help="uncertain-graph file")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=7687, help="0 picks a free port"
    )
    p.add_argument(
        "--worlds", type=int, default=64,
        help="default Monte-Carlo sample size per query",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--window-ms", type=float, default=2.0,
        help="query-coalescing window in milliseconds",
    )
    p.add_argument(
        "--max-queue", type=int, default=4096,
        help="bound on queued queries; beyond it requests are shed with "
        "an 'overloaded' error and a retry-after hint",
    )
    p.add_argument(
        "--idle-timeout", type=float, default=300.0,
        help="close connections idle for this many seconds (0 disables)",
    )

    p = sub.add_parser(
        "trace",
        help="summarise a traced run (trace.jsonl / manifest.json)",
        description=(
            "Print the per-phase span table, the heaviest spans, and the "
            "posterior kernel mix recorded by a --trace run.  PATH may be "
            "a trace.jsonl, a manifest.json, or a directory holding "
            "either."
        ),
    )
    p.add_argument(
        "path", help="trace.jsonl, manifest.json, or a run directory"
    )
    p.add_argument(
        "--top", type=int, default=10,
        help="max rows in the top-spans table (default 10)",
    )
    return parser


def _cmd_obfuscate(args) -> int:
    with span("read_input", path=str(args.input)):
        graph = read_edge_list(args.input)
    print(f"loaded {args.input}: n={graph.num_vertices} m={graph.num_edges}")
    c_values = (args.c,)
    if args.escalate_c:
        # Escalation only ever enlarges the candidate set.
        c_values += tuple(c for c in (3.0, 5.0) if c > args.c)
    result = obfuscate_with_fallback(
        graph,
        args.k,
        args.eps,
        c_values=c_values,
        seed=args.seed,
        q=args.q,
        attempts=args.attempts,
        delta=args.delta,
    )
    if not result.success:
        print(
            "FAILED: no (k, eps)-obfuscation found; try --escalate-c, a "
            "larger --eps, or a smaller --k",
            file=sys.stderr,
        )
        return 1
    with span("write_output", path=str(args.output)):
        write_uncertain_graph(result.uncertain, args.output)
    print(
        f"wrote {args.output}: sigma={result.sigma:.6g} "
        f"eps_achieved={result.eps_achieved:.6g} c={result.params.c:g} "
        f"({result.edges_per_second:,.0f} edges/sec)"
    )
    return 0


def _cmd_verify(args) -> int:
    graph = read_edge_list(args.original)
    release = read_uncertain_graph(args.release, n=graph.num_vertices)
    ok = is_k_eps_obfuscation(release, graph, args.k, args.eps)
    print(
        f"release {'IS' if ok else 'is NOT'} a "
        f"({args.k:g}, {args.eps:g})-obfuscation of {args.original}"
    )
    return 0 if ok else 2


def _cmd_stats(args) -> int:
    # Imported lazily, as _cmd_compare imports the worlds engine.
    from repro.worlds import WorldStatisticsEstimator

    release = read_uncertain_graph(args.release)
    print(
        f"loaded {args.release}: n={release.num_vertices} "
        f"candidates={release.num_candidate_pairs} "
        f"E[edges]={release.expected_num_edges():.2f}"
    )
    stats = paper_statistics(distance_backend=args.backend, seed=args.seed)
    executor = None
    if args.workers != 1:
        from repro.exec import make_executor

        executor = make_executor(args.workers)
    estimator = WorldStatisticsEstimator(release, stats, executor=executor)
    try:
        summaries = estimator.run(worlds=args.worlds, seed=args.seed)
    finally:
        if executor is not None:
            executor.close()
    print(f"{'statistic':<10} {'mean':>14} {'rel.SEM':>10}")
    for name, summary in summaries.items():
        print(f"{name:<10} {summary.mean:>14.6g} {summary.relative_sem:>10.2%}")
    return 0


def _cmd_compare(args) -> int:
    # Imported lazily: the experiments layer pulls in the full worlds
    # engine, which the other subcommands do not need.
    from repro.experiments.comparison import (
        baseline_utility_row,
        calibrate_randomization,
        original_row,
    )
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.report import render_table

    if args.p is None and (args.k is None or args.eps is None):
        print(
            "compare: give --p, or both --k and --eps for calibration",
            file=sys.stderr,
        )
        return 2
    graph = read_edge_list(args.input)
    print(f"loaded {args.input}: n={graph.num_vertices} m={graph.num_edges}")
    config = ExperimentConfig(
        baseline_samples=args.samples,
        seed=args.seed,
        distance_backend=args.backend,
    )
    rows = [original_row(graph, config)]
    import numpy as np

    executor = None
    if args.workers != 1:
        from repro.exec import make_executor

        executor = make_executor(args.workers)
    try:
        for scheme in args.schemes:
            p = args.p
            if p is None:
                p = calibrate_randomization(
                    graph,
                    scheme,
                    args.k,
                    args.eps,
                    seed=(args.seed, 17),
                )
                if np.isnan(p):
                    print(
                        f"{scheme}: no grid p reaches k={args.k:g} at "
                        f"eps={args.eps:g}; row skipped"
                    )
                    continue
                print(f"{scheme}: calibrated p={p:g}")
            rows.append(
                baseline_utility_row(
                    graph, scheme, p, config, label=f"{scheme} (p={p:g})",
                    executor=executor,
                )
            )
    finally:
        if executor is not None:
            executor.close()
    print(render_table(rows))
    return 0


def _cmd_sample(args) -> int:
    release = read_uncertain_graph(args.release)
    world = sample_world(release, seed=args.seed)
    write_edge_list(world, args.output)
    print(f"wrote {args.output}: n={world.num_vertices} m={world.num_edges}")
    return 0


def _cmd_serve(args) -> int:
    # Imported lazily: the serving layer pulls in asyncio plumbing the
    # batch-oriented subcommands never need.
    import asyncio
    import signal

    from repro.serve import ObfuscationServer, QueryEngine

    with span("read_release", path=str(args.release)):
        release = read_uncertain_graph(args.release)
    engine = QueryEngine(release, worlds=args.worlds, seed=args.seed)
    server = ObfuscationServer(
        engine,
        host=args.host,
        port=args.port,
        window_ms=args.window_ms,
        max_queue=args.max_queue,
        idle_timeout_s=args.idle_timeout if args.idle_timeout > 0 else None,
    )
    print(
        f"loaded {args.release}: n={release.num_vertices} "
        f"candidates={release.num_candidate_pairs} worlds={args.worlds}"
    )

    async def run() -> None:
        await server.start()
        print(f"listening on {server.host}:{server.port}", flush=True)
        stopping = asyncio.Event()
        loop = asyncio.get_running_loop()
        # SIGTERM drains gracefully like ctrl-C: stop accepting, answer
        # every accepted query, then exit.
        try:
            loop.add_signal_handler(signal.SIGTERM, stopping.set)
        except NotImplementedError:  # pragma: no cover - non-unix loop
            pass
        try:
            await stopping.wait()  # until SIGTERM or KeyboardInterrupt
        finally:
            await server.stop()  # drains queue + in-flight window

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def _cmd_trace(args) -> int:
    # Imported lazily: the reporting layer is only needed here.
    from repro.obs.report import resolve_run, summarise_run

    try:
        manifest, records = resolve_run(args.path)
    except (FileNotFoundError, ValueError) as exc:
        print(f"trace: {exc}", file=sys.stderr)
        return 2
    print(summarise_run(manifest, records, top=args.top))
    return 0


_MANIFEST_SKIP_KEYS = frozenset(("command", "verbose", "quiet", "trace_dir"))

#: Per subcommand, the options that are ObfuscationParams fields: they
#: are checked against its bounds before any file is read.
_PARAM_OPTIONS = {
    "obfuscate": ("k", "eps", "c", "q", "attempts", "delta"),
    "verify": ("k", "eps"),
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    options = _PARAM_OPTIONS.get(args.command)
    if options:
        try:
            ObfuscationParams(**{name: getattr(args, name) for name in options})
        except ValueError as exc:
            print(f"{args.command}: {exc}", file=sys.stderr)
            return 2
    handlers = {
        "obfuscate": _cmd_obfuscate,
        "verify": _cmd_verify,
        "stats": _cmd_stats,
        "sample": _cmd_sample,
        "compare": _cmd_compare,
        "serve": _cmd_serve,
        "trace": _cmd_trace,
    }
    setup_logging(getattr(args, "verbose", 0), getattr(args, "quiet", False))
    trace_dir = getattr(args, "trace_dir", None)
    if trace_dir is None:
        return handlers[args.command](args)

    # Traced run: spans stream to DIR/trace.jsonl while the command
    # executes, then the manifest (config, seed, span tree, metrics
    # dump) lands next to it.  All instrumentation is observational, so
    # the command's own outputs are bit-identical to an untraced run.
    trace_dir = Path(trace_dir)
    trace_dir.mkdir(parents=True, exist_ok=True)
    tracer = enable_tracing(trace_dir / "trace.jsonl")
    t0 = time.perf_counter()
    try:
        code = handlers[args.command](args)
    finally:
        disable_tracing()
    manifest = build_manifest(
        f"repro {args.command}",
        config={
            k: v for k, v in vars(args).items() if k not in _MANIFEST_SKIP_KEYS
        },
        seed=getattr(args, "seed", None),
        argv=list(argv) if argv is not None else sys.argv[1:],
        tracer=tracer,
        elapsed_s=time.perf_counter() - t0,
        results={"exit_code": code},
    )
    write_manifest(trace_dir / "manifest.json", manifest)
    print(f"trace written to {trace_dir}/", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
