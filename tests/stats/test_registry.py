"""Tests for the Table-4 statistic registry."""

import pytest

from repro.graphs.generators import powerlaw_cluster
from repro.stats.registry import PAPER_STATISTIC_NAMES, paper_statistics


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster(200, 3, 0.5, seed=0)


class TestRegistry:
    def test_all_paper_columns_present(self):
        stats = paper_statistics()
        assert tuple(stats) == PAPER_STATISTIC_NAMES

    def test_all_callables_return_floats(self, graph):
        stats = paper_statistics(distance_backend="exact")
        for name, func in stats.items():
            value = func(graph)
            assert isinstance(value, float), name

    def test_exact_and_sampled_backends_agree_roughly(self, graph):
        exact = paper_statistics(distance_backend="exact")
        sampled = paper_statistics(distance_backend="sampled", sample_size=150)
        assert sampled["S_APD"](graph) == pytest.approx(
            exact["S_APD"](graph), rel=0.1
        )

    def test_anf_backend_agrees_roughly(self, graph):
        exact = paper_statistics(distance_backend="exact")
        anf = paper_statistics(distance_backend="anf")
        assert anf["S_APD"](graph) == pytest.approx(exact["S_APD"](graph), rel=0.2)
        assert anf["S_EDiam"](graph) == pytest.approx(
            exact["S_EDiam"](graph), rel=0.3
        )

    def test_unknown_backend_rejected(self, graph):
        with pytest.raises(ValueError, match="unknown distance backend"):
            paper_statistics(distance_backend="teleport")

    def test_powerlaw_d_min_rejected(self):
        """The S_PL tail cut is fixed at max(2, round(S_AD)), not an option."""
        with pytest.raises(TypeError):
            paper_statistics(powerlaw_d_min=3)

    def test_histogram_cache_shared(self, graph):
        """Distance stats on the same graph object reuse one histogram."""
        import time

        stats = paper_statistics(distance_backend="exact")
        t0 = time.perf_counter()
        stats["S_APD"](graph)
        first = time.perf_counter() - t0
        t0 = time.perf_counter()
        stats["S_EDiam"](graph)
        stats["S_CL"](graph)
        stats["S_DiamLB"](graph)
        rest = time.perf_counter() - t0
        assert rest < max(first, 0.001) * 2  # cached calls are near-free

    def test_degree_statistics_values(self, graph):
        stats = paper_statistics()
        degrees = graph.degrees()
        assert stats["S_NE"](graph) == float(graph.num_edges)
        assert stats["S_AD"](graph) == pytest.approx(degrees.mean())
        assert stats["S_MD"](graph) == float(degrees.max())
