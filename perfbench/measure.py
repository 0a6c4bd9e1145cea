"""Measurement helpers: raw-sample percentiles, process resources, receipts."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import subprocess
from bisect import bisect_right
from pathlib import Path

from repro.obs.metrics import REGISTRY

#: Registry instruments whose timed-phase deltas must repeat exactly
#: between runs of the same code on the same inputs.  Histograms
#: contribute their observation total (``anf.iterations``: the summed
#: HyperANF iterations to fixpoint).  Serve window counts are left out:
#: how requests group into windows depends on timing.
EXACT_COUNTS: tuple[str, ...] = (
    "search.probes",
    "generate.calls",
    "generate.winners",
    "generate.pairs_drawn",
    "generate.rows_folded",
    "generate.rows_recomputed",
    "posterior.rows.staircase",
    "posterior.rows.tree",
    "posterior.rows.clt",
    "worlds.sampled",
    "worlds.eval.chunks",
    "worlds.eval.worlds",
    "anf.worlds",
    "anf.iterations",
    "exec.retries",
    "serve.queries",
    "serve.errors",
    "serve.bfs.passes",
    "serve.cache.answer_hits",
    "serve.cache.dist_hits",
    "serve.batches.sampled",
)


def registry_value(name: str) -> float:
    """A counter's value or a histogram's observation total (0 if unset)."""
    value = REGISTRY.get(name, 0)
    if isinstance(value, dict):
        return value["total"]
    return value


def exact_counts() -> dict[str, float]:
    return {name: registry_value(name) for name in EXACT_COUNTS}


def counts_delta(before: dict, after: dict) -> dict:
    return {name: after[name] - before[name] for name in before}


def percentile(sorted_samples, q: float) -> float:
    """Nearest-rank ``q``-quantile of ascending raw samples (an observed value)."""
    if not len(sorted_samples):
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    rank = max(1, math.ceil(q * len(sorted_samples)))
    return float(sorted_samples[rank - 1])


def samples_beyond(sorted_samples, value: float) -> int:
    """How many of the ascending samples are strictly greater than ``value``."""
    return len(sorted_samples) - bisect_right(sorted_samples, value)


def children_cpu_s() -> float:
    """CPU seconds of every child process reaped so far (workers joined)."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """This process's RSS high-water mark plus its largest reaped child's.

    Linux reports ``ru_maxrss`` in KiB.  ``RUSAGE_CHILDREN`` covers only
    children already joined, so read this after the worker pool closes.
    The sum is the two high-water marks the kernel keeps, not a
    simultaneous total: two workers may peak together, and pages shared
    across ``fork`` count in both parent and child.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def stop_resource_tracker() -> None:
    """Stop this process's ``multiprocessing`` resource tracker, if it
    started one, and wait for it to exit.

    The first shared-memory segment (``repro.exec`` at two workers)
    starts the tracker as a process of its own, which the standard
    library lets outlive its parent.  Call this last, once every pool is
    joined and every segment unlinked, so the run leaves no process
    behind.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def source_digest(src: Path) -> str:
    """SHA-256 (first 16 hex digits) over every ``.py`` file under ``src``."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_fingerprint(root: Path) -> dict:
    """Cores, Python, NumPy, git SHA (when ``root`` is a git checkout) and
    a digest of the program's sources, which identifies the code measured
    even in a checkout without git metadata."""
    import numpy

    sha = None
    if (root / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10,
            )
            sha = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_sha": sha,
        "src_sha256": source_digest(root / "src"),
    }
