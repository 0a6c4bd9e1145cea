"""Tests for figure-data builders."""

import numpy as np
import pytest

from repro.experiments.config import quick_config
from repro.experiments.figures import figure2_data, figure3_data, figure4_data
from repro.experiments.harness import run_obfuscation_sweep


@pytest.fixture(scope="module")
def config():
    return quick_config(worlds=8, k_values=(5,))


@pytest.fixture(scope="module")
def sweep(config):
    return run_obfuscation_sweep(config)


class TestFigure2:
    def test_quartiles_ordered(self, sweep, config):
        series = figure2_data(sweep[0], config, max_distance=10)
        assert (series.minimum <= series.q1 + 1e-12).all()
        assert (series.q1 <= series.median + 1e-12).all()
        assert (series.median <= series.q3 + 1e-12).all()
        assert (series.q3 <= series.maximum + 1e-12).all()

    def test_original_overlaps_boxes_at_small_k(self, sweep, config):
        """k=5 obfuscation: the original distance distribution should fall
        inside (or near) the sampled whisker range for most bins."""
        series = figure2_data(sweep[0], config, max_distance=10)
        populated = series.original > 0.01
        inside = (
            (series.original >= series.minimum - 0.05)
            & (series.original <= series.maximum + 0.05)
        )
        assert inside[populated].mean() > 0.7

    def test_bins_length(self, sweep, config):
        series = figure2_data(sweep[0], config, max_distance=15)
        assert len(series.bins) == 16


class TestFigure3:
    def test_fractions_bounded(self, sweep, config):
        series = figure3_data(sweep[0], config, max_degree=8)
        assert (series.maximum <= 1.0).all()
        assert (series.minimum >= 0.0).all()

    def test_degree_distribution_tracks_original(self, sweep, config):
        """Figure 3's observation: the degree distribution is very well
        preserved — medians sit close to the original fractions."""
        series = figure3_data(sweep[0], config, max_degree=8)
        gap = np.abs(series.median - series.original)
        assert gap.max() < 0.08


class TestFigure4:
    def test_curves_present(self, sweep, config):
        curves = figure4_data(
            sweep, config, "dblp", baselines=[("sparsification", 0.5)], k_max=30
        )
        assert "original" in curves
        assert any(label.startswith("obf.") for label in curves)
        assert "sparsification p=0.5" in curves

    def test_monotone_curves(self, sweep, config):
        curves = figure4_data(sweep, config, "dblp", k_max=30)
        for label, values in curves.items():
            if label == "k":
                continue
            assert (np.diff(values) >= 0).all(), label

    def test_obfuscation_dominates_original(self, sweep, config):
        """Obfuscation shifts anonymity up: fewer vertices at low levels."""
        curves = figure4_data(sweep, config, "dblp", k_max=30)
        obf_label = next(l for l in curves if l.startswith("obf."))
        # strictly fewer (or equal) low-anonymity vertices everywhere
        assert (curves[obf_label] <= curves["original"] + 1e-9).all()

    def test_baseline_curves_match_sequential_release_path(self, sweep, config):
        """The batched baseline side (sample_releases + degree_matrix +
        vectorised levels) reproduces the former per-release pipeline:
        same RNG stream ⇒ same release ⇒ same curve."""
        from repro.baselines.anonymity import randomization_anonymity_levels
        from repro.baselines.anonymity import cumulative_anonymity_curve
        from repro.utils.rng import as_rng

        from tests.oracles.worlds import sample_release

        baselines = [("sparsification", 0.4), ("perturbation", 0.3)]
        curves = figure4_data(
            sweep, config, "dblp", baselines=baselines, k_max=25
        )
        graph = config.graph("dblp")
        rng = as_rng((config.seed, 4))
        k_grid = np.arange(1, 26, dtype=np.float64)
        for scheme, p in baselines:
            published = sample_release(graph, scheme, p, rng)
            levels = randomization_anonymity_levels(graph, published, scheme, p)
            expected = cumulative_anonymity_curve(levels, k_grid)
            np.testing.assert_array_equal(
                curves[f"{scheme} p={p:g}"], expected
            )
