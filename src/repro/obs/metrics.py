"""Process-wide metrics registry: counters and histograms.

The registry is the single accounting surface for the quantities the
engines used to lose or hand-plumb through return values: posterior
rows by kernel path (staircase vs fold vs CLT), candidate-pair redraw
churn, worlds/releases chunk sizes and union-incidence reuse, HyperANF
iterations-to-fixpoint, and the ``rows_folded``/``rows_recomputed``
fold-coverage totals.  Since the serving layer (:mod:`repro.serve`)
landed it is also the per-op latency surface: bucketed histograms
(see below) record request latencies and expose p50/p99.

Design constraints, in priority order:

* **Never perturbs results** — instruments record quantities the hot
  paths have already computed (array sizes, dispatch counts); they
  touch no RNG stream and reorder no floating-point operation, so a
  traced run is bit-identical to an untraced one.
* **Thread-safe** — the serving layer mutates instruments from
  concurrent request handlers, so every mutation (``add``,
  ``observe``, in-place ``reset``) holds a per-instrument lock and the
  registry guards its name table with its own lock.  The fast path is
  an *uncontended* ``lock.acquire`` — a single C-level atomic in
  CPython, far below the cost of the array work being counted — so the
  single-threaded engines pay no measurable premium (the CI
  trace-overhead gate stays ≤5%).
* **Always on, and cheap enough for that to be fine** — every
  instrument is incremented once per *batch-level event* (a posterior
  matrix call, an attempt, a chunk, a coalesced serve window), never
  per row or per element.
* **Zero dependencies** — stdlib only.

Handles are memoised by name: modules grab them once at import time
(``_ROWS_CLT = REGISTRY.counter("posterior.rows.clt")``) so the hot
path pays no dict lookup.  :meth:`MetricsRegistry.reset` zeroes values
in place, keeping every existing handle valid — tests bracket a seeded
run with ``reset()`` + ``snapshot()`` to assert counter coherence.

Percentile histograms
---------------------
``Histogram`` is bucket-free by default (count/total/min/max — a few
scalar ops per observe).  Passing ``buckets`` — an ascending sequence
of upper bounds, e.g. from :func:`exponential_buckets` — turns on
bounded-bucket counting: each observation lands in the first bucket
whose bound is ``>= value`` (an implicit +inf bucket catches the
overflow), and :meth:`Histogram.percentile` answers p50/p99-style
queries with resolution bounded by the bucket spacing.  Memory is
``O(len(buckets))`` regardless of observation count, which is what
lets the serving layer keep per-op latency percentiles always-on.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "exponential_buckets",
    "metrics_snapshot",
    "reset_metrics",
]


def exponential_buckets(
    start: float, factor: float, count: int
) -> tuple[float, ...]:
    """``count`` geometric bucket upper bounds: ``start · factor^i``.

    The conventional shape for latency histograms — e.g.
    ``exponential_buckets(1e-5, 1.5, 40)`` spans 10 µs … ~0.3 s with
    ~50% resolution per bucket.
    """
    if start <= 0 or factor <= 1 or count < 1:
        raise ValueError(
            f"need start > 0, factor > 1, count >= 1; got "
            f"{start}/{factor}/{count}"
        )
    return tuple(start * factor**i for i in range(count))


class Counter:
    """A monotonically increasing integer total (thread-safe)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def add(self, amount: int = 1) -> None:
        with self._lock:
            self.value += int(amount)

    def _reset(self) -> None:
        with self._lock:
            self.value = 0

    def _snapshot(self):
        return self.value

    def _dump(self) -> dict:
        return {"kind": "counter", "value": self.value}

    def _merge(self, dump: dict) -> None:
        self.add(dump["value"])


class Histogram:
    """Streaming count/total/min/max summary of observed values.

    Bucket-free by default: the original consumers (manifests, ``repro
    trace``) want "how many, how big on average, how extreme", and a
    four-field summary keeps ``observe`` to a few scalar ops.  With
    ``buckets`` (ascending upper bounds) it additionally maintains
    bounded bucket counts and answers :meth:`percentile` queries — the
    serving layer's per-op latency surface.  All mutation is
    lock-protected (concurrent request handlers must not drop
    increments).
    """

    __slots__ = (
        "name",
        "count",
        "total",
        "min",
        "max",
        "bucket_bounds",
        "bucket_counts",
        "_lock",
    )

    def __init__(self, name: str, buckets=None):
        self.name = name
        self._lock = threading.Lock()
        if buckets is not None:
            bounds = tuple(float(b) for b in buckets)
            if not bounds or any(
                b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
            ):
                raise ValueError(
                    f"buckets must be non-empty strictly ascending, got {buckets!r}"
                )
            self.bucket_bounds = bounds
        else:
            self.bucket_bounds = None
        self.bucket_counts = None
        self._reset()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            if self.bucket_counts is not None:
                self.bucket_counts[bisect_left(self.bucket_bounds, value)] += 1

    def observe_many(self, values) -> None:
        """Bulk observe (e.g. a per-world ``converged_at`` array)."""
        n = len(values)
        if n == 0:
            return
        total = float(sum(values))
        lo, hi = min(values), max(values)
        with self._lock:
            self.count += int(n)
            self.total += total
            if lo < self.min:
                self.min = float(lo)
            if hi > self.max:
                self.max = float(hi)
            if self.bucket_counts is not None:
                for value in values:
                    self.bucket_counts[
                        bisect_left(self.bucket_bounds, float(value))
                    ] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def percentile(self, q: float) -> float:
        """Upper bound of the bucket holding the ``q``-quantile.

        ``q`` in [0, 1].  Resolution is the bucket spacing: the true
        quantile lies at or below the returned bound (and above the
        previous bound).  The overflow bucket reports the observed
        maximum, so the answer is always finite.  ``nan`` when empty or
        bucket-free.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        with self._lock:
            if self.bucket_counts is None or self.count == 0:
                return float("nan")
            rank = q * self.count
            seen = 0
            for i, c in enumerate(self.bucket_counts):
                seen += c
                if seen >= rank and seen > 0:
                    if i == len(self.bucket_bounds):
                        return self.max  # overflow bucket
                    return min(self.bucket_bounds[i], self.max)
            return self.max

    def _reset(self) -> None:
        with self._lock:
            self.count = 0
            self.total = 0.0
            self.min = math.inf
            self.max = -math.inf
            if self.bucket_bounds is not None:
                self.bucket_counts = [0] * (len(self.bucket_bounds) + 1)

    def _snapshot(self):
        if not self.count:
            snap = {"count": 0, "total": 0.0, "min": None, "max": None, "mean": None}
        else:
            snap = {
                "count": self.count,
                "total": self.total,
                "min": self.min,
                "max": self.max,
                "mean": self.mean,
            }
        if self.bucket_counts is not None and self.count:
            snap["p50"] = self.percentile(0.50)
            snap["p99"] = self.percentile(0.99)
        return snap

    def _dump(self) -> dict:
        """Full mergeable state — unlike :meth:`_snapshot`, includes the
        raw bucket counts so a parent registry can fold a worker's
        histogram in without losing percentile resolution."""
        with self._lock:
            return {
                "kind": "histogram",
                "count": self.count,
                "total": self.total,
                "min": self.min,
                "max": self.max,
                "bounds": self.bucket_bounds,
                "counts": (
                    list(self.bucket_counts)
                    if self.bucket_counts is not None
                    else None
                ),
            }

    def _merge(self, dump: dict) -> None:
        if not dump["count"]:
            return
        with self._lock:
            self.count += dump["count"]
            self.total += dump["total"]
            if dump["min"] < self.min:
                self.min = dump["min"]
            if dump["max"] > self.max:
                self.max = dump["max"]
            if (
                self.bucket_counts is not None
                and dump["counts"] is not None
                and self.bucket_bounds == tuple(dump["bounds"])
            ):
                for i, c in enumerate(dump["counts"]):
                    self.bucket_counts[i] += c


class MetricsRegistry:
    """Name → instrument registry with in-place reset.

    ``counter``/``histogram`` memoise by name, so repeated
    calls return the same handle; asking for a name already registered
    as a different kind (or a histogram with different buckets) raises.
    The name table is guarded by a registry lock; instrument mutation
    holds the per-instrument lock (see module docstring).
    """

    def __init__(self):
        self._instruments: dict[str, Counter | Histogram] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, cls, *args):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = self._instruments[name] = cls(name, *args)
            elif type(instrument) is not cls:
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}, not {cls.__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def histogram(self, name: str, buckets=None) -> Histogram:
        instrument = self._get(
            name, Histogram, *(() if buckets is None else (buckets,))
        )
        if buckets is not None and instrument.bucket_bounds != tuple(
            float(b) for b in buckets
        ):
            raise ValueError(
                f"histogram {name!r} already registered with buckets "
                f"{instrument.bucket_bounds!r}"
            )
        return instrument

    def snapshot(self) -> dict:
        """Flat name → value dict (histograms become summary dicts).

        Sorted by name so manifests and diffs are stable.
        """
        with self._lock:
            instruments = sorted(self._instruments.items())
        return {name: instrument._snapshot() for name, instrument in instruments}

    def reset(self) -> None:
        """Zero every instrument *in place* — existing handles stay valid."""
        with self._lock:
            instruments = list(self._instruments.values())
        for instrument in instruments:
            instrument._reset()

    def get(self, name: str, default=0):
        """Snapshot one instrument's value (``default`` when unregistered)."""
        with self._lock:
            instrument = self._instruments.get(name)
        return instrument._snapshot() if instrument is not None else default

    def dump(self) -> dict:
        """Mergeable full state of every instrument (see :meth:`merge`).

        Unlike :meth:`snapshot` this preserves histogram bucket counts,
        so a worker's dump folded into the parent loses nothing.  The
        result is picklable plain data — the shape the
        :mod:`repro.exec` result channel ships.
        """
        with self._lock:
            instruments = sorted(self._instruments.items())
        return {name: instrument._dump() for name, instrument in instruments}

    def merge(self, dump: dict) -> None:
        """Fold a :meth:`dump` from another registry into this one.

        Counters add; histograms fold count/total/min/max and — when
        bucket layouts agree — bucket counts.  Instruments unknown here
        are created, so a worker that touched a metric the parent never
        did still surfaces it in the merged snapshot.
        """
        for name, data in dump.items():
            kind = data["kind"]
            if kind == "counter":
                self.counter(name)._merge(data)
            else:
                try:
                    instrument = self.histogram(name, buckets=data["bounds"])
                except ValueError:
                    # Bucket layouts disagree (possible across versions);
                    # _merge still folds the scalar summary safely.
                    instrument = self._get(name, Histogram)
                instrument._merge(data)


#: The process-wide registry every engine instruments against.
REGISTRY = MetricsRegistry()


def metrics_snapshot() -> dict:
    """Snapshot of the process-wide registry."""
    return REGISTRY.snapshot()


def reset_metrics() -> None:
    """Zero the process-wide registry (handles stay valid)."""
    REGISTRY.reset()
