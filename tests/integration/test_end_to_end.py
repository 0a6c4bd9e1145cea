"""End-to-end integration: publish → verify → analyse → compare.

These tests exercise the full public API the way the examples do, on
small surrogates, asserting the paper's qualitative claims rather than
implementation details.
"""

import numpy as np
import pytest

from repro import (
    UncertainGraph,
    is_k_eps_obfuscation,
    obfuscate,
    read_uncertain_graph,
    write_uncertain_graph,
)
from repro.baselines import random_sparsification
from repro.core import compute_degree_posterior
from repro.experiments.config import quick_config
from repro.graphs import dblp_like
from repro.stats import hoeffding_sample_size, num_edges, paper_statistics
from repro.worlds import WorldStatisticsEstimator, estimate_statistic


@pytest.fixture(scope="module")
def graph():
    return dblp_like(scale=0.15, seed=0)


@pytest.fixture(scope="module")
def published(graph):
    result = obfuscate(graph, k=10, eps=0.1, seed=0, attempts=2, delta=5e-3)
    assert result.success
    return result


class TestPublishPipeline:
    def test_verifies(self, graph, published):
        assert is_k_eps_obfuscation(published.uncertain, graph, 10, 0.1)

    def test_round_trips_through_disk(self, tmp_path, graph, published):
        path = tmp_path / "published.txt"
        write_uncertain_graph(published.uncertain, path)
        loaded = read_uncertain_graph(path)
        assert is_k_eps_obfuscation(loaded, graph, 10, 0.1)

    def test_expected_edges_close_to_original(self, graph, published):
        exact = published.uncertain.expected_num_edges()
        assert exact == pytest.approx(graph.num_edges, rel=0.1)

    def test_candidate_set_size_c_times_edges(self, graph, published):
        assert published.uncertain.num_candidate_pairs == round(
            published.params.c * graph.num_edges
        )


class TestAnalysisPipeline:
    def test_hoeffding_guided_sampling(self, published):
        """Consumer workflow: pick r from Corollary 1, then estimate."""
        ug = published.uncertain
        n = ug.num_vertices
        r = hoeffding_sample_size(0.05, 0.1, 0.0, 1.0)
        stats = paper_statistics(distance_backend="anf")
        estimator = WorldStatisticsEstimator(ug, {"S_CC": stats["S_CC"]})
        out = estimator.run(worlds=min(r, 60), seed=1)
        assert 0.0 <= out["S_CC"].mean <= 1.0

    def test_utility_preserved_at_small_k(self, graph, published):
        summary = estimate_statistic(
            published.uncertain, num_edges, worlds=40, seed=2
        )
        assert summary.relative_error(graph.num_edges) < 0.1

    def test_anonymity_levels_raised(self, graph, published):
        post = compute_degree_posterior(
            published.uncertain, width=int(graph.degrees().max()) + 2
        )
        levels = post.obfuscation_levels(graph.degrees())
        from repro.baselines import original_anonymity_levels

        before = original_anonymity_levels(graph)
        # median anonymity must not decrease
        assert np.median(levels) >= np.median(before) * 0.9


class TestComparativeClaim:
    def test_beats_sparsification_at_matched_utility_cost(self, graph, published):
        """Qualitative Table-6 check on a small instance: sparsification
        aggressive enough to matter (p=0.64, the paper's value) loses far
        more edges than the uncertain release loses in expectation."""
        sparse = random_sparsification(graph, 0.64, seed=0)
        sparse_err = abs(sparse.num_edges - graph.num_edges) / graph.num_edges
        ours_err = (
            abs(published.uncertain.expected_num_edges() - graph.num_edges)
            / graph.num_edges
        )
        assert ours_err < sparse_err


class TestQuickConfigPipeline:
    def test_whole_quick_run(self):
        from repro.experiments import (
            run_obfuscation_sweep,
            table2_rows,
            table4_rows,
        )

        cfg = quick_config(k_values=(5,), worlds=6)
        sweep = run_obfuscation_sweep(cfg)
        assert table2_rows(sweep)[0]["success"]
        rows = table4_rows(sweep, cfg)
        assert rows[1]["rel_err"] < 0.2
