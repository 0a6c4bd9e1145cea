"""repro.obs — zero-dependency observability: spans, metrics, manifests.

The measurement backbone behind every engine:

* :mod:`repro.obs.trace` — a context-manager span tracer
  (wall clock, CPU time, peak-RSS delta, nesting) with JSONL emission;
  near-zero overhead while disabled.
* :mod:`repro.obs.metrics` — an always-on process-wide registry of
  counters/histograms fed by the hot paths (posterior kernel
  mix, dispatch decisions, candidate churn, chunk sizes, HyperANF
  iterations, fold coverage).
* :mod:`repro.obs.manifest` — JSON run manifests (config, seeds, git
  SHA, versions, span tree, metrics dump) written next to results.
* :mod:`repro.obs.memory` — :func:`peak_rss_mb`, shared by spans,
  manifests and the benchmark harness.
* :mod:`repro.obs.log` — the CLI's ``--verbose``/``--quiet`` logging
  setup.
* :mod:`repro.obs.report` — the ``repro trace`` summariser.

Everything here is observational by construction: instruments record
quantities the engines already computed, touch no RNG stream, and
reorder no floating-point op — a traced run is bit-identical in its
outputs to an untraced one.
"""

from repro.obs.log import setup_logging, verbosity_level
from repro.obs.manifest import (
    SCHEMA_ID,
    build_manifest,
    git_sha,
    library_versions,
    load_manifest,
    validate_manifest,
    write_manifest,
)
from repro.obs.memory import peak_rss_mb
from repro.obs.metrics import (
    REGISTRY,
    MetricsRegistry,
    exponential_buckets,
    metrics_snapshot,
    reset_metrics,
)
from repro.obs.report import load_trace, resolve_run, summarise_run
from repro.obs.trace import (
    Span,
    Tracer,
    current_tracer,
    disable_tracing,
    enable_tracing,
    span,
    tracing_enabled,
)

__all__ = [
    "REGISTRY",
    "SCHEMA_ID",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "build_manifest",
    "current_tracer",
    "disable_tracing",
    "enable_tracing",
    "exponential_buckets",
    "git_sha",
    "library_versions",
    "load_manifest",
    "load_trace",
    "metrics_snapshot",
    "peak_rss_mb",
    "reset_metrics",
    "resolve_run",
    "setup_logging",
    "span",
    "summarise_run",
    "tracing_enabled",
    "validate_manifest",
    "verbosity_level",
    "write_manifest",
]
