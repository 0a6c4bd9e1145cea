"""Human-readable summaries of trace files and run manifests.

Backs the ``repro trace`` subcommand: given a ``trace.jsonl``, a
``manifest.json``, or a directory holding either, print the per-phase
table (top-level spans), the heaviest spans by cumulative wall time,
the posterior kernel mix recorded by the metrics registry, and how
many worlds the triangle kernel counted in a shared lane slice or alone.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["load_trace", "resolve_run", "summarise_run"]

#: metric name → kernel-mix row label (insertion order = display order).
_KERNEL_MIX_ROWS = {
    "posterior.rows.staircase": "staircase rows",
    "posterior.rows.clt": "CLT rows",
    "posterior.fold.rows": "fold-in rows",
    "generate.rows_folded": "rows served by fold",
    "generate.rows_recomputed": "rows recomputed",
}


def load_trace(path) -> list[dict]:
    """Parse a JSONL trace file into flat span records."""
    records = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            records.append(json.loads(line))
    return records


def resolve_run(path) -> tuple[dict | None, list[dict]]:
    """Locate the (manifest, span records) pair behind ``path``.

    ``path`` may be a manifest JSON, a JSONL trace, or a directory
    containing ``manifest.json``/``trace.jsonl``.  Span records are
    taken from the trace file when present, else flattened out of the
    manifest's span tree.
    """
    from repro.obs.manifest import load_manifest

    path = Path(path)
    manifest: dict | None = None
    records: list[dict] = []
    if path.is_dir():
        manifest_path = path / "manifest.json"
        trace_path = path / "trace.jsonl"
        if not manifest_path.exists() and not trace_path.exists():
            raise FileNotFoundError(
                f"{path}: no manifest.json or trace.jsonl inside"
            )
        if manifest_path.exists():
            manifest = load_manifest(manifest_path)
        if trace_path.exists():
            records = load_trace(trace_path)
    elif path.suffix == ".jsonl":
        records = load_trace(path)
    else:
        manifest = load_manifest(path)
    if not records and manifest is not None:
        records = _flatten_tree(manifest.get("spans", []))
    return manifest, records


def _flatten_tree(nodes, depth: int = 0) -> list[dict]:
    flat: list[dict] = []
    for node in nodes:
        flat.append({**{k: node[k] for k in node if k != "children"}, "depth": depth})
        flat.extend(_flatten_tree(node.get("children", []), depth + 1))
    return flat


def _fmt_row(cols, widths) -> str:
    return "  ".join(str(c).ljust(w) for c, w in zip(cols, widths)).rstrip()


def _table(header: list[str], rows: list[list]) -> str:
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    lines = [_fmt_row(header, widths), _fmt_row(["-" * w for w in widths], widths)]
    lines.extend(_fmt_row(r, widths) for r in rows)
    return "\n".join(lines)


def _aggregate(records: list[dict], *, depth: int | None = None) -> list[list]:
    """Span rows aggregated by name: calls, total wall/cpu, rss delta."""
    totals: dict[str, list[float]] = {}
    for rec in records:
        if depth is not None and rec.get("depth", 0) != depth:
            continue
        agg = totals.setdefault(rec["name"], [0, 0.0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += rec.get("wall_s", 0.0)
        agg[2] += rec.get("cpu_s", 0.0)
        agg[3] += rec.get("rss_delta_mb", 0.0)
    rows = [
        [name, calls, f"{wall:.3f}", f"{cpu:.3f}", f"{rss:+.1f}"]
        for name, (calls, wall, cpu, rss) in totals.items()
    ]
    rows.sort(key=lambda r: -float(r[2]))
    return rows


def _metric_value(metrics: dict, name: str):
    value = metrics.get(name)
    if isinstance(value, dict):  # histogram summary
        return value.get("total", 0)
    return value


def summarise_run(
    manifest: dict | None, records: list[dict], *, top: int = 10
) -> str:
    """The full ``repro trace`` report as one string."""
    sections: list[str] = []
    if manifest is not None:
        sections.append(
            f"run: {manifest.get('command', '?')} @ {manifest.get('created', '?')}\n"
            f"git: {manifest.get('git_sha') or 'unknown'}  "
            f"python {manifest.get('versions', {}).get('python', '?')}  "
            f"numpy {manifest.get('versions', {}).get('numpy', '?')}\n"
            f"elapsed: {manifest.get('elapsed_s', 0.0):.2f}s  "
            f"peak rss: {manifest.get('peak_rss_mb', 0.0):.0f} MiB"
        )

    header = ["span", "calls", "wall_s", "cpu_s", "rss_delta_mb"]
    phase_rows = _aggregate(records, depth=0)
    if phase_rows:
        sections.append("per-phase (top-level spans):\n" + _table(header, phase_rows))

    all_rows = _aggregate(records)[:top]
    if all_rows:
        sections.append(
            f"top spans by cumulative wall time (max {top}):\n"
            + _table(header, all_rows)
        )

    metrics = manifest.get("metrics", {}) if manifest is not None else {}
    mix_rows = []
    mix_total = 0.0
    for name in ("posterior.rows.staircase", "posterior.rows.clt"):
        value = _metric_value(metrics, name)
        if value:
            mix_total += value
    for name, label in _KERNEL_MIX_ROWS.items():
        value = _metric_value(metrics, name)
        if value is None:
            continue
        share = (
            f"{100.0 * value / mix_total:.1f}%"
            if mix_total and name.startswith("posterior.rows.")
            else ""
        )
        mix_rows.append([label, f"{value:,}", share])
    if mix_rows:
        sections.append(
            "kernel mix:\n" + _table(["path", "rows", "share"], mix_rows)
        )
    sliced = _metric_value(metrics, "worlds.triangles.sliced")
    alone = _metric_value(metrics, "worlds.triangles.alone")
    if sliced or alone:
        wedges = _metric_value(metrics, "triangles.wedges") or 0
        sections.append(
            f"triangle lanes: {sliced or 0:,} worlds sliced / {alone or 0:,} "
            f"counted alone, {wedges:,} wedges enumerated"
        )
    if not sections:
        sections.append("(empty trace: no spans or metrics recorded)")
    return "\n\n".join(sections)
