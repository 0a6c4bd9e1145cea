"""Cross-module property-based invariants (hypothesis).

Each test draws random small instances and asserts an invariant that
must hold for *every* input — the safety net under the randomized
algorithms.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.generate import generate_obfuscation
from repro.core.obfuscation_check import (
    compute_degree_posterior,
    is_k_eps_obfuscation,
)
from repro.core.types import ObfuscationParams
from repro.graphs.generators import erdos_renyi
from repro.graphs.graph import Graph
from repro.stats.distance import distance_histogram
from repro.uncertain.graph import UncertainGraph
from repro.uncertain.io import read_uncertain_graph, write_uncertain_graph
from tests.oracles.worlds import enumerate_worlds


def random_graph(n: int, m: int, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    edges: set[tuple[int, int]] = set()
    tries = 0
    while len(edges) < m and tries < 20 * m:
        tries += 1
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(n, edges)


def random_uncertain(n: int, pairs: int, seed: int) -> UncertainGraph:
    rng = np.random.default_rng(seed)
    probs: dict[tuple[int, int], float] = {}  # a re-drawn pair keeps its last p
    for _ in range(pairs):
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v:
            probs[(min(u, v), max(u, v))] = float(rng.random())
    return UncertainGraph.from_pairs(n, [(u, v, p) for (u, v), p in probs.items()])


class TestUncertainGraphInvariants:
    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_expected_degrees_sum_twice_expected_edges(self, n, pairs, seed):
        ug = random_uncertain(n, pairs, seed)
        assert ug.expected_degrees().sum() == pytest.approx(
            2 * ug.expected_num_edges()
        )

    @settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.integers(min_value=2, max_value=10),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_io_round_trip_exact(self, n, pairs, seed):
        import tempfile
        from pathlib import Path

        ug = random_uncertain(n, pairs, seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ug.txt"
            write_uncertain_graph(ug, path)
            back = read_uncertain_graph(path, n=n)
        assert sorted(back.candidate_pairs()) == sorted(ug.candidate_pairs())

    @settings(max_examples=20, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_enumeration_matches_posterior(self, n, pairs, seed):
        """Σ_worlds Pr(W)·1{deg_W(v)=ω} == X_v(ω) for every (v, ω)."""
        ug = random_uncertain(n, pairs, seed)
        post = compute_degree_posterior(ug, method="exact")
        x_enum = np.zeros_like(post.matrix)
        for world, prob in enumerate_worlds(ug):
            for v in range(n):
                d = world.degree(v)
                if d < post.width:
                    x_enum[v, d] += prob
        assert np.allclose(x_enum, post.matrix, atol=1e-9)


class TestPosteriorInvariants:
    @settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.integers(min_value=3, max_value=12),
        st.integers(min_value=1, max_value=25),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_column_entropy_bounded_by_log_n(self, n, pairs, seed):
        ug = random_uncertain(n, pairs, seed)
        post = compute_degree_posterior(ug, method="exact")
        for omega in range(post.width):
            assert post.column_entropy(omega) <= np.log2(n) + 1e-9

    @settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.integers(min_value=3, max_value=12),
        st.integers(min_value=1, max_value=25),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_rows_sum_to_one(self, n, pairs, seed):
        ug = random_uncertain(n, pairs, seed)
        post = compute_degree_posterior(ug, method="exact")
        assert np.allclose(post.matrix.sum(axis=1), 1.0)


class TestObfuscationOutputInvariants:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=0.05, max_value=0.6),
    )
    def test_generate_obfuscation_contract(self, seed, sigma):
        """Whatever the randomness, a successful Algorithm-2 output has
        |E_C| = c|E|, probabilities in [0,1], and passes Definition 2."""
        graph = erdos_renyi(40, 0.15, seed=seed % 1000)
        if graph.num_edges == 0:
            return
        params = ObfuscationParams(k=2, eps=0.4, attempts=1)
        out = generate_obfuscation(graph, sigma, params, seed=seed)
        if not out.success:
            return
        assert out.uncertain.num_candidate_pairs == round(2.0 * graph.num_edges)
        probs = [p for _, _, p in out.uncertain.candidate_pairs()]
        assert all(0.0 <= p <= 1.0 for p in probs)
        assert is_k_eps_obfuscation(out.uncertain, graph, 2, 0.4)


class TestDistanceInvariants:
    @settings(max_examples=20, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.integers(min_value=2, max_value=25),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_histogram_partitions_pair_universe(self, n, m, seed):
        g = random_graph(n, m, seed)
        hist = distance_histogram(g)
        assert hist.total_pairs == pytest.approx(g.num_pairs)
        assert (hist.counts >= 0).all()

    @settings(max_examples=20, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.integers(min_value=3, max_value=20),
        st.integers(min_value=2, max_value=30),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_adding_edges_never_increases_distances(self, n, m, seed):
        from repro.stats.distance import average_distance

        g = random_graph(n, m, seed)
        hist_before = distance_histogram(g)
        rng = np.random.default_rng(seed + 1)
        for _ in range(10):
            u, v = int(rng.integers(n)), int(rng.integers(n))
            if u != v and not g.has_edge(u, v):
                g2 = Graph.from_edges(n, [*g.edges(), (u, v)])
                break
        else:
            return
        hist_after = distance_histogram(g2)
        # connected pairs can only grow; disconnected can only shrink
        assert hist_after.connected_pairs >= hist_before.connected_pairs
        assert hist_after.disconnected <= hist_before.disconnected
