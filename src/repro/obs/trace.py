"""Span tracer: nested wall/CPU/peak-RSS timing with JSONL emission.

Usage::

    from repro.obs import enable_tracing, disable_tracing, span

    tracer = enable_tracing("out/trace.jsonl")
    with span("sweep", dataset="dblp"):
        with span("probe", sigma=1.5, phase="doubling"):
            ...
    disable_tracing()
    tree = tracer.span_tree()       # nested dicts for the run manifest

Each finished span records wall-clock seconds (``perf_counter``),
process CPU seconds (``process_time``), the peak-RSS delta across its
body (a monotone high-water mark, so the delta bounds the additional
peak the body demanded), its nesting depth and parent, and any keyword
attributes.  Spans are emitted as one JSON line each, in completion
order, to the trace file (when a path was given) and kept in memory for
:meth:`Tracer.span_tree`.

**Disabled cost is the design constraint**: when no tracer is active,
:func:`span` returns a shared no-op singleton — one global read and one
function call, no allocation beyond the kwargs dict, no clock reads.
Hot paths therefore wrap *phases* (a probe, a chunk, a sweep cell), not
inner loops.  Instrumentation never touches an RNG stream, so traced
and untraced runs are bit-identical in their outputs (pinned by
``tests/obs/test_cli_trace.py`` and the CI ``trace-smoke`` job).
"""

from __future__ import annotations

import json
import time

from repro.obs.memory import peak_rss_mb

__all__ = [
    "Span",
    "Tracer",
    "current_tracer",
    "disable_tracing",
    "drop_inherited_tracer",
    "enable_tracing",
    "span",
    "tracing_enabled",
]

#: The active tracer, or None.  A module-level slot (not a contextvar)
#: keeps the disabled check to a single global read.
_ACTIVE: "Tracer | None" = None


class _NullSpan:
    """Shared no-op span returned while tracing is disabled.

    Carries zeroed timing attributes so code that reads ``sp.wall_s``
    after the block works identically either way.
    """

    __slots__ = ()
    wall_s = 0.0
    cpu_s = 0.0
    rss_delta_mb = 0.0
    depth = 0
    name = ""
    attrs: dict = {}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **attrs) -> None:
        """No-op attribute setter (mirrors :meth:`Span.set`)."""


_NULL_SPAN = _NullSpan()


class Span:
    """One live (then finished) timing region.  Created via :func:`span`."""

    __slots__ = (
        "name",
        "attrs",
        "span_id",
        "parent_id",
        "depth",
        "wall_s",
        "cpu_s",
        "rss_delta_mb",
        "_tracer",
        "_t0",
        "_cpu0",
        "_rss0",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.name = name
        self.attrs = attrs
        self._tracer = tracer
        self.span_id = -1
        self.parent_id = -1
        self.depth = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.rss_delta_mb = 0.0

    def set(self, **attrs) -> None:
        """Attach result attributes discovered inside the block."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self._rss0 = peak_rss_mb()
        self._cpu0 = time.process_time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        # Clocks read innermost-first on entry, so the exit order
        # mirrors them and the span never charges itself for the
        # tracer's own bookkeeping.
        self.wall_s = time.perf_counter() - self._t0
        self.cpu_s = time.process_time() - self._cpu0
        self.rss_delta_mb = peak_rss_mb() - self._rss0
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._pop(self)
        return False

    def to_record(self) -> dict:
        """The span as a flat JSONL-ready dict."""
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "depth": self.depth,
            "name": self.name,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "rss_delta_mb": self.rss_delta_mb,
            "attrs": self.attrs,
        }


class Tracer:
    """Span factory + sink.  Install via :func:`enable_tracing`."""

    def __init__(self, path=None):
        self.path = str(path) if path is not None else None
        self.finished: list[dict] = []
        self._stack: list[Span] = []
        self._next_id = 0
        self._file = open(self.path, "w") if self.path is not None else None

    # ------------------------------------------------------------------
    def span(self, name: str, attrs: dict) -> Span:
        return Span(self, name, attrs)

    def _push(self, sp: Span) -> None:
        sp.span_id = self._next_id
        self._next_id += 1
        sp.parent_id = self._stack[-1].span_id if self._stack else -1
        sp.depth = len(self._stack)
        self._stack.append(sp)

    def _pop(self, sp: Span) -> None:
        # Tolerate exceptions unwinding through several spans at once.
        while self._stack and self._stack[-1] is not sp:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        record = sp.to_record()
        self.finished.append(record)
        if self._file is not None:
            self._file.write(json.dumps(record) + "\n")

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    # ------------------------------------------------------------------
    def absorb(self, records: list[dict]) -> None:
        """Graft finished spans from a worker process into this trace.

        ``records`` is the worker tracer's ``finished`` list — flat
        span dicts with worker-local ids.  Ids are remapped into this
        tracer's id space, worker roots (``parent == -1``) are attached
        under the currently open span (the executor's ``exec.map``
        span, normally), and depths are shifted accordingly, so the
        grafted spans land in the span tree and the JSONL stream
        exactly where the work logically happened.  This is the *only*
        path by which worker spans reach disk: workers trace in memory
        and ship records over the result channel, never holding the
        trace file (the fork-inherited double-write this replaces).
        """
        if not records:
            return
        base_parent = self._stack[-1].span_id if self._stack else -1
        base_depth = len(self._stack)
        id_map: dict[int, int] = {}
        for rec in records:
            id_map[rec["id"]] = self._next_id
            self._next_id += 1
        for rec in records:
            grafted = dict(rec)
            grafted["id"] = id_map[rec["id"]]
            grafted["parent"] = id_map.get(rec["parent"], base_parent)
            grafted["depth"] = rec["depth"] + base_depth
            self.finished.append(grafted)
            if self._file is not None:
                self._file.write(json.dumps(grafted) + "\n")

    # ------------------------------------------------------------------
    def span_tree(self) -> list[dict]:
        """Finished spans as a nested forest (manifest ``spans`` field).

        Children appear in completion order under their parent; roots
        (``parent == -1``) form the top level.  Spans still open are not
        included.
        """
        nodes = {
            rec["id"]: {
                "name": rec["name"],
                "wall_s": rec["wall_s"],
                "cpu_s": rec["cpu_s"],
                "rss_delta_mb": rec["rss_delta_mb"],
                "attrs": rec["attrs"],
                "children": [],
            }
            for rec in self.finished
        }
        roots: list[dict] = []
        for rec in self.finished:
            parent = nodes.get(rec["parent"])
            (parent["children"] if parent else roots).append(nodes[rec["id"]])
        return roots


# ----------------------------------------------------------------------
# module-level API
# ----------------------------------------------------------------------
def span(name: str, **attrs):
    """A span context manager, or the shared no-op when tracing is off."""
    tracer = _ACTIVE
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, attrs)


def enable_tracing(path=None) -> Tracer:
    """Install (and return) the process tracer.

    ``path`` names the JSONL trace file (optional: in-memory only when
    omitted).  Idempotent: if a tracer is already active it is returned
    unchanged — nested drivers share the outermost trace.
    """
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = Tracer(path)
    return _ACTIVE


def disable_tracing() -> Tracer | None:
    """Deactivate and close the tracer; returns it for post-hoc reading."""
    global _ACTIVE
    tracer, _ACTIVE = _ACTIVE, None
    if tracer is not None:
        tracer.close()
    return tracer


def drop_inherited_tracer() -> None:
    """Disarm a tracer inherited across ``fork`` (worker initializer).

    A forked worker inherits the parent's active tracer *including its
    open JSONL file object and its buffered, not-yet-flushed bytes*.
    If the child were to close (or even just keep) that handle, the
    inherited buffer would flush from the child too and every span
    could be written twice — once per process.  This drops the child's
    reference without flushing or closing anything: the parent's copy
    of the file descriptor is untouched, and the child starts with no
    tracer (the executor installs a fresh in-memory one per task when
    the parent is tracing).
    """
    global _ACTIVE
    tracer = _ACTIVE
    _ACTIVE = None
    if tracer is not None and tracer._file is not None:
        # The child's fd table is its own after fork: pointing the
        # inherited descriptor at /dev/null means any flush the child
        # ever performs (including the implicit one at interpreter
        # exit) lands nowhere, while the parent's descriptor — a
        # separate entry in a separate process — keeps writing the
        # real trace file.
        import os

        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, tracer._file.fileno())
            os.close(devnull)
        except OSError:  # pragma: no cover - fd already gone
            pass
        tracer._file = None


def tracing_enabled() -> bool:
    return _ACTIVE is not None


def current_tracer() -> Tracer | None:
    return _ACTIVE
