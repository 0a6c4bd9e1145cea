"""CI smoke test for the observability layer (``repro.obs``).

Runs the same seeded ``repro obfuscate`` on a dblp-like surrogate twice
— once plain, once under ``--trace`` — and checks the three contracts
the tracing subsystem pins:

1. **Bit identity**: the traced run's uncertain-graph output is byte-
   identical to the untraced one (instrumentation never touches an RNG
   stream or reorders floating-point work).
2. **Receipts**: the traced run leaves ``trace.jsonl`` (parseable span
   records, obfuscation spans present) and a ``manifest.json`` that
   passes :func:`repro.obs.manifest.validate_manifest`, with the
   posterior kernel-mix counters populated.
3. **Reporting**: ``repro trace <run-dir>`` renders the summary and
   exits 0.
4. **Sharded tracing**: under a 2-worker process pool, worker spans are
   buffered in the child and grafted into the parent's stream exactly
   once — no fork-inherited double-writes to the JSONL file — they land
   under the executor's ``exec.map`` span, and the traced sharded run
   stays bit-identical to the untraced one.

Usage::

    PYTHONPATH=src python benchmarks/trace_smoke.py

Exit status: 0 = all contracts hold, 1 = first violated contract
(printed to stderr).
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from repro.cli import main as cli_main
from repro.graphs.datasets import dblp_like
from repro.graphs.io import write_edge_list
from repro.obs.manifest import SCHEMA_ID, load_manifest

#: Kernel-mix counters the manifest of an obfuscation run must carry.
_REQUIRED_METRICS = (
    "posterior.rows.staircase",
    "posterior.fold.rows",
    "generate.pairs_drawn",
    "search.probes",
)


def fail(message: str) -> None:
    print(f"trace smoke FAILED: {message}", file=sys.stderr)
    raise SystemExit(1)


def sharded_trace_checks(tmp: Path) -> None:
    """Contract 4: worker spans ship to the parent, never to the file.

    Fork children inherit the parent's open JSONL handle; before the
    executor disarmed inherited tracers, every worker span was written
    twice (child + graft).  This runs the sharded Table-2 sweep with
    and without a live file tracer and checks the traced stream holds
    exactly one ``sweep_cell`` record per grid cell, every span id is
    unique, worker spans sit under ``exec.map``, and tracing changed
    no output bit.
    """
    import numpy as np

    from repro.exec import ChunkExecutor
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.harness import run_obfuscation_sweep
    from repro.obs.trace import disable_tracing, enable_tracing

    config = ExperimentConfig(
        datasets=("dblp",),
        scale=0.1,
        k_values=(20,),
        eps_values=(1e-3,),
        worlds=10,
        attempts=2,
        delta=0.05,
        seed=0,
    )
    trace_path = tmp / "sharded_trace.jsonl"
    with ChunkExecutor(backend="process", workers=2) as ex:
        plain = run_obfuscation_sweep(config, executor=ex)
        enable_tracing(trace_path)
        try:
            traced = run_obfuscation_sweep(config, executor=ex)
        finally:
            disable_tracing()

    for a, b in zip(plain, traced):
        same = a.result.sigma == b.result.sigma and all(
            np.array_equal(x, y)
            for x, y in zip(
                a.result.uncertain.pair_arrays(),
                b.result.uncertain.pair_arrays(),
            )
        )
        if not same:
            fail("sharded traced output differs from sharded untraced output")
    print("sharded bit identity: traced == untraced at 2 workers")

    records = [
        json.loads(line) for line in trace_path.read_text().splitlines() if line
    ]
    ids = [rec["id"] for rec in records]
    if len(ids) != len(set(ids)):
        fail("duplicate span ids in sharded trace (worker double-write)")
    names = [rec["name"] for rec in records]
    cell_spans = names.count("sweep_cell")
    if cell_spans != len(plain):
        fail(
            f"expected exactly {len(plain)} sweep_cell span(s) in the "
            f"sharded trace, got {cell_spans} (double-write or drop)"
        )
    if "exec.map" not in names:
        fail("exec.map span missing from sharded trace")
    map_ids = {rec["id"] for rec in records if rec["name"] == "exec.map"}
    for rec in records:
        if rec["name"] == "sweep_cell" and rec["parent"] not in map_ids:
            fail("sweep_cell span not grafted under the exec.map span")
    print(
        f"sharded trace: {len(records)} spans, ids unique, "
        f"{cell_spans} sweep_cell span(s) grafted under exec.map"
    )


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="trace-smoke-") as tmp_name:
        tmp = Path(tmp_name)
        graph = dblp_like(scale=0.2, seed=0)
        edges = tmp / "graph.txt"
        write_edge_list(graph, edges)
        print(f"surrogate: n={graph.num_vertices} m={graph.num_edges}")

        base = [
            "obfuscate",
            "--input", str(edges),
            "--k", "10",
            "--eps", "0.1",
            "--attempts", "2",
            "--delta", "0.05",
            "--seed", "0",
        ]
        plain_out = tmp / "plain.txt"
        traced_out = tmp / "traced.txt"
        run_dir = tmp / "run"

        if cli_main(base + ["--output", str(plain_out)]) != 0:
            fail("untraced obfuscation did not succeed")
        code = cli_main(
            base + ["--output", str(traced_out), "--trace", str(run_dir)]
        )
        if code != 0:
            fail("traced obfuscation did not succeed")

        # 1. bit identity
        if plain_out.read_bytes() != traced_out.read_bytes():
            fail("traced output differs from untraced output (bit identity broken)")
        print("bit identity: traced == untraced output")

        # 2a. span stream
        trace_path = run_dir / "trace.jsonl"
        if not trace_path.exists():
            fail("trace.jsonl was not written")
        records = [
            json.loads(line) for line in trace_path.read_text().splitlines() if line
        ]
        if not records:
            fail("trace.jsonl is empty")
        names = {rec["name"] for rec in records}
        for expected in ("obfuscate", "probe", "read_input", "write_output"):
            if expected not in names:
                fail(f"span {expected!r} missing from trace.jsonl (got {sorted(names)})")
        print(f"trace.jsonl: {len(records)} spans, names ok")

        # 2b. manifest schema + kernel mix
        manifest = load_manifest(run_dir / "manifest.json")  # raises if invalid
        if manifest["schema"] != SCHEMA_ID:
            fail(f"unexpected manifest schema {manifest['schema']!r}")
        metrics = manifest["metrics"]
        for name in _REQUIRED_METRICS:
            if not metrics.get(name):
                fail(f"manifest metric {name!r} missing or zero")
        print(f"manifest.json: schema valid, {len(metrics)} metrics recorded")

        # 3. the report renders
        if cli_main(["trace", str(run_dir)]) != 0:
            fail("`repro trace <run-dir>` exited non-zero")

        # 4. sharded tracing: single-write worker spans, identity held
        sharded_trace_checks(tmp)

    print(
        "\ntrace smoke passed: bit identity, manifest schema, trace report, "
        "sharded single-write spans"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
