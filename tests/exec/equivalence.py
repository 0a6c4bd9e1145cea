"""Reusable seed-equivalence harness: serial == sharded, bit for bit.

Every engine that dispatches through :class:`repro.exec.ChunkExecutor`
carries the same promise — sharding is an implementation detail, the
numbers are the serial numbers.  This module is the one place that
promise is phrased as code: a workload is a ``build(executor)``
callable, and :func:`assert_seed_equivalent` runs it serially, then
under the serial backend and 2- and 4-process pools, asserting the
results compare bit-exactly each time.

Comparators for the repo's three result shapes (summary dicts from the
estimator, array dicts from ``BatchStatisticsEngine.evaluate``, Table-2
sweep entry lists) live here too, so new equivalence pins are one-liners,
and so does :func:`stray_processes`, the check that a finished ``map``
left nothing running.
"""

from __future__ import annotations

import multiprocessing
from multiprocessing import resource_tracker

import numpy as np

from repro.exec import ChunkExecutor
from repro.uncertain.graph import UncertainGraph

#: The pinned grid: serial reference plus these executor worker counts.
WORKER_GRID = (1, 2, 4)


def run_grid(build, *, workers=WORKER_GRID):
    """``build(executor)`` serially, then once per worker count.

    Returns ``[(label, result), ...]`` with the bare serial run
    (``executor=None``) first.  ``workers == 1`` exercises the serial
    *backend* (an executor object whose ``map`` is a list
    comprehension), which must also be indistinguishable.
    """
    runs = [("serial", build(None))]
    for count in workers:
        if count <= 1:
            with ChunkExecutor(backend="serial") as ex:
                runs.append((f"workers={count}", build(ex)))
        else:
            with ChunkExecutor(backend="process", workers=count) as ex:
                runs.append((f"workers={count}", build(ex)))
            assert stray_processes() == []
    return runs


def stray_processes() -> list:
    """What a returned or raised process ``map`` must not leave behind.

    Each ``map`` joins the pool it forked, and a fork pool never starts
    ``multiprocessing``'s resource tracker, so both lists stay empty.
    """
    strays = [f"child {p.pid}" for p in multiprocessing.active_children()]
    if resource_tracker._resource_tracker._fd is not None:
        strays.append("resource tracker")
    return strays


def assert_seed_equivalent(build, equal, *, workers=WORKER_GRID):
    """Pin ``build`` to bit-identical results at every worker count.

    ``equal(reference, other) -> bool`` must compare bit-exactly (no
    tolerances — parallel float summation reorders are exactly the bug
    class this harness exists to catch).  Returns the serial reference
    result for follow-up assertions.
    """
    runs = run_grid(build, workers=workers)
    _, reference = runs[0]
    for label, result in runs[1:]:
        assert equal(reference, result), (
            f"sharded result diverges from serial at {label}"
        )
    return reference


# ----------------------------------------------------------------------
# comparators
# ----------------------------------------------------------------------

def summaries_equal(a, b) -> bool:
    """``dict[str, SampleSummary]`` — compare the raw per-world values."""
    return set(a) == set(b) and all(
        np.array_equal(a[name].values, b[name].values) for name in a
    )


def array_dicts_equal(a, b) -> bool:
    """``dict[str, np.ndarray]`` (the ``BatchStatisticsEngine.evaluate`` shape)."""
    return set(a) == set(b) and all(
        np.array_equal(a[name], b[name]) for name in a
    )


def sweeps_equal(a, b) -> bool:
    """Table-2 sweep entry lists: cell keys, σ, and the full release."""
    if len(a) != len(b):
        return False
    for ea, eb in zip(a, b):
        if (ea.dataset, ea.k, ea.paper_eps, ea.eps_used) != (
            eb.dataset, eb.k, eb.paper_eps, eb.eps_used
        ):
            return False
        if ea.result.success != eb.result.success:
            return False
        if not ea.result.success:
            continue
        if ea.result.sigma != eb.result.sigma:
            return False
        pairs_a = ea.result.uncertain.pair_arrays()
        pairs_b = eb.result.uncertain.pair_arrays()
        if not all(np.array_equal(x, y) for x, y in zip(pairs_a, pairs_b)):
            return False
    return True


# ----------------------------------------------------------------------
# shared workload inputs
# ----------------------------------------------------------------------

def random_uncertain(
    n: int, pairs: int, seed: int, *, certain_fraction: float = 0.2
) -> UncertainGraph:
    """A random sparse uncertain graph (mixed certain/fractional pairs)."""
    rng = np.random.default_rng(seed)
    chosen: dict[tuple[int, int], float] = {}
    while len(chosen) < pairs:
        u, v = (int(x) for x in rng.integers(0, n, 2))
        if u == v:
            continue
        p = 1.0 if rng.random() < certain_fraction else float(rng.random())
        chosen[(min(u, v), max(u, v))] = p
    return UncertainGraph.from_pairs(
        n, [(u, v, p) for (u, v), p in chosen.items()]
    )
