"""Run manifests: one JSON receipt per CLI/experiment/benchmark run.

A manifest records everything needed to interpret (and re-run) the
results sitting next to it: the resolved configuration, seeds, the git
SHA and library versions of the code that ran, the per-phase span tree
from the tracer, and the final metrics-registry dump (kernel mix,
fold coverage, chunk sizes, ...).

The schema is hand-validated (:func:`validate_manifest`) — no
``jsonschema`` dependency — and pinned by ``tests/obs/test_manifest.py``
and the CI ``trace-smoke`` job.

Manifest layout (``SCHEMA_ID = "repro.obs/manifest.v1"``)::

    {
      "schema":   "repro.obs/manifest.v1",
      "created":  "2026-08-08T12:34:56+00:00",   # ISO-8601
      "command":  "repro obfuscate",              # human-readable entry point
      "argv":     ["--input", "g.txt", ...],      # raw arguments (may be [])
      "config":   {...},                          # resolved knobs, JSON-safe
      "seed":     0,                              # root seed or null
      "git_sha":  "abc123..." | null,             # HEAD at run time
      "versions": {"python": ..., "numpy": ..., "platform": ...},
      "elapsed_s":   12.3,
      "peak_rss_mb": 456.7,
      "spans":    [ {name, wall_s, cpu_s, rss_delta_mb, attrs, children:[...]} ],
      "metrics":  {"posterior.rows.staircase": 123, ...},
      "results":  {...}                           # run-specific summary
    }
"""

from __future__ import annotations

import json
import platform
import subprocess
from datetime import datetime, timezone
from pathlib import Path

from repro.obs.memory import peak_rss_mb
from repro.obs.metrics import metrics_snapshot
from repro.resilience.atomic import atomic_write_text

__all__ = [
    "SCHEMA_ID",
    "build_manifest",
    "git_sha",
    "library_versions",
    "load_manifest",
    "validate_manifest",
    "write_manifest",
]

SCHEMA_ID = "repro.obs/manifest.v1"


def git_sha() -> str | None:
    """HEAD commit of the repository containing this package, if any."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def library_versions() -> dict:
    """Python/NumPy/platform identifiers for the manifest."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a core dependency
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def _json_safe(value):
    """Best-effort conversion of config values to JSON-encodable types."""
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    # numpy scalars and anything else with an .item()
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return item()
        except (TypeError, ValueError):
            pass
    return repr(value)


def build_manifest(
    command: str,
    *,
    config: dict | None = None,
    seed: int | None = None,
    argv: list | None = None,
    results: dict | None = None,
    tracer=None,
    metrics: dict | None = None,
    elapsed_s: float | None = None,
) -> dict:
    """Assemble a schema-valid manifest dict.

    ``tracer`` (a :class:`repro.obs.trace.Tracer`, active or already
    disabled) supplies the span tree; ``metrics`` defaults to the
    process-wide registry snapshot; ``elapsed_s`` defaults to the total
    wall time of the tracer's root spans.
    """
    spans = tracer.span_tree() if tracer is not None else []
    if elapsed_s is None:
        elapsed_s = float(sum(s["wall_s"] for s in spans))
    return {
        "schema": SCHEMA_ID,
        "created": datetime.now(timezone.utc).isoformat(),
        "command": command,
        "argv": [str(a) for a in (argv or [])],
        "config": _json_safe(config or {}),
        "seed": None if seed is None else int(seed),
        "git_sha": git_sha(),
        "versions": library_versions(),
        "elapsed_s": elapsed_s,
        "peak_rss_mb": peak_rss_mb(),
        "spans": spans,
        "metrics": metrics if metrics is not None else metrics_snapshot(),
        "results": _json_safe(results or {}),
    }


def write_manifest(path, manifest: dict) -> Path:
    """Validate and write ``manifest`` as pretty-printed JSON.

    The write is atomic (temp sibling + ``os.replace``): a crash while
    publishing leaves the previous manifest, never a truncated one.
    """
    errors = validate_manifest(manifest)
    if errors:
        raise ValueError(f"refusing to write invalid manifest: {errors}")
    path = Path(path)
    atomic_write_text(path, json.dumps(manifest, indent=2, sort_keys=False) + "\n")
    return path


def load_manifest(path) -> dict:
    """Read and validate a manifest file; raises on schema violations.

    A file that is not even JSON — the signature of a torn write from a
    crashed pre-atomic run — is rejected with a clear ``ValueError``
    rather than a raw decode traceback.
    """
    try:
        manifest = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: truncated or corrupt manifest (partial write?): {exc}"
        ) from exc
    errors = validate_manifest(manifest)
    if errors:
        raise ValueError(f"{path}: invalid manifest: {errors}")
    return manifest


# ----------------------------------------------------------------------
# schema validation (stdlib-only)
# ----------------------------------------------------------------------
_NUMBER = (int, float)

#: Required top-level fields and their accepted types (None = nullable).
_TOP_FIELDS: dict[str, tuple] = {
    "schema": (str,),
    "created": (str,),
    "command": (str,),
    "argv": (list,),
    "config": (dict,),
    "seed": (int, type(None)),
    "git_sha": (str, type(None)),
    "versions": (dict,),
    "elapsed_s": _NUMBER,
    "peak_rss_mb": _NUMBER,
    "spans": (list,),
    "metrics": (dict,),
    "results": (dict,),
}

_SPAN_FIELDS: dict[str, tuple] = {
    "name": (str,),
    "wall_s": _NUMBER,
    "cpu_s": _NUMBER,
    "rss_delta_mb": _NUMBER,
    "attrs": (dict,),
    "children": (list,),
}


def _check_span(node, where: str, errors: list[str]) -> None:
    if not isinstance(node, dict):
        errors.append(f"{where}: span node must be an object")
        return
    for field, types in _SPAN_FIELDS.items():
        if field not in node:
            errors.append(f"{where}: missing span field {field!r}")
        elif not isinstance(node[field], types) or isinstance(node[field], bool):
            errors.append(f"{where}.{field}: wrong type {type(node[field]).__name__}")
    for i, child in enumerate(node.get("children", []) or []):
        _check_span(child, f"{where}.children[{i}]", errors)


def validate_manifest(manifest) -> list[str]:
    """Return every schema violation (empty list = valid)."""
    errors: list[str] = []
    if not isinstance(manifest, dict):
        return ["manifest must be a JSON object"]
    for field, types in _TOP_FIELDS.items():
        if field not in manifest:
            errors.append(f"missing field {field!r}")
        elif not isinstance(manifest[field], types) or (
            isinstance(manifest[field], bool) and bool not in types
        ):
            errors.append(f"{field}: wrong type {type(manifest[field]).__name__}")
    if manifest.get("schema") not in (None, SCHEMA_ID):
        errors.append(
            f"schema: expected {SCHEMA_ID!r}, got {manifest.get('schema')!r}"
        )
    for i, node in enumerate(manifest.get("spans", []) or []):
        _check_span(node, f"spans[{i}]", errors)
    metrics = manifest.get("metrics")
    if isinstance(metrics, dict):
        for name, value in metrics.items():
            if not isinstance(value, (*_NUMBER, dict, type(None))):
                errors.append(f"metrics[{name!r}]: wrong type {type(value).__name__}")
    versions = manifest.get("versions")
    if isinstance(versions, dict):
        for key in ("python", "numpy", "platform"):
            if key not in versions:
                errors.append(f"versions: missing {key!r}")
    return errors
