"""Degree-grouped frontier HyperANF vs the edge-wise ground truth (PR 4).

The multi-world kernel of :mod:`repro.worlds.anf_batch` backported to
the single-graph :func:`repro.anf.hyperanf` must reproduce the original
``np.maximum.at`` sweep exactly: registers are merged with the same
(uint8-exact) max, the change frontier can only shrink the work, never
alter it, and cached per-row estimates are pure functions of row
content — so every ``N(t)`` value and the convergence step match
bit-for-bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.anf.hyperanf import hyperanf
from repro.graphs.datasets import dblp_like
from repro.graphs.generators import erdos_renyi, powerlaw_cluster
from repro.graphs.graph import Graph

from tests.oracles.anf import hyperanf_edgewise


def _assert_identical(graph, *, b=6, seed=0, max_steps=None):
    fast = hyperanf(graph, b=b, seed=seed, max_steps=max_steps)
    slow = hyperanf_edgewise(graph, b=b, seed=seed, max_steps=max_steps)
    assert fast.converged_at == slow.converged_at
    np.testing.assert_array_equal(fast.values, slow.values)


class TestBackportEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_erdos_renyi(self, seed):
        _assert_identical(erdos_renyi(150, 0.04, seed=seed), b=7, seed=seed)

    def test_powerlaw(self):
        _assert_identical(powerlaw_cluster(200, 3, 0.4, seed=2), b=6)

    def test_dblp_surrogate(self):
        _assert_identical(dblp_like(scale=0.1, seed=0), b=6)

    def test_register_width_variants(self):
        g = erdos_renyi(80, 0.06, seed=3)
        for b in (4, 8, 10):
            _assert_identical(g, b=b)

    def test_path_graph_long_diameter(self):
        """A path stresses the frontier logic: exactly two rows change
        per late step."""
        n = 40
        g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        _assert_identical(g, b=7)

    def test_disconnected_and_isolated(self, two_components):
        _assert_identical(two_components)

    def test_empty_graph(self):
        _assert_identical(Graph(0))
        _assert_identical(Graph(7))  # vertices, no edges

    def test_max_steps_cap(self):
        n = 30
        g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        _assert_identical(g, b=6, max_steps=3)

    def test_converged_at_is_diameter_lower_bound(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        nf = hyperanf(g, b=10, seed=0)
        assert nf.diameter_lower_bound == nf.converged_at
        # path of length 4: registers stabilise after at most 4 steps
        assert nf.converged_at <= 4
