"""Shared fixtures for the batched possible-world engine tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exec import plan
from repro.uncertain.graph import UncertainGraph


def random_uncertain(
    n: int, pairs: int, seed: int, *, certain_fraction: float = 0.2
) -> UncertainGraph:
    """A random sparse uncertain graph with a mix of certain/fractional pairs."""
    rng = np.random.default_rng(seed)
    chosen: dict[tuple[int, int], float] = {}
    while len(chosen) < pairs:
        u, v = (int(x) for x in rng.integers(0, n, 2))
        if u == v:
            continue
        p = 1.0 if rng.random() < certain_fraction else float(rng.random())
        chosen[(min(u, v), max(u, v))] = p
    return UncertainGraph.from_pairs(n, [(u, v, p) for (u, v), p in chosen.items()])


def force_slices(monkeypatch, shape, size: int) -> None:
    """Patch the planner's byte bounds so that both kernel groups of a
    batch shaped like ``shape`` (anything with ``num_vertices`` and
    ``num_candidate_pairs``: an uncertain graph or a world batch) are
    evaluated ``size`` worlds at a time."""
    monkeypatch.setattr(
        plan, "KEEP_MATRIX_BYTES", size * max(shape.num_candidate_pairs, 1)
    )
    monkeypatch.setattr(
        plan, "ANF_REGISTER_STACK_BYTES", size * max(shape.num_vertices << 6, 1)
    )


@pytest.fixture
def small_uncertain() -> UncertainGraph:
    """~50 vertices, 150 candidate pairs — big enough for real structure."""
    return random_uncertain(50, 150, seed=7)


@pytest.fixture
def denser_uncertain() -> UncertainGraph:
    """Denser graph (triangles, short distances) for the stat kernels."""
    return random_uncertain(30, 180, seed=11)
