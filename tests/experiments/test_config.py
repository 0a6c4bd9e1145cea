"""Tests for experiment configuration and the ε rescaling."""

import pytest

from repro.experiments.config import (
    PAPER_EPS_VALUES,
    PAPER_K_VALUES,
    ExperimentConfig,
    quick_config,
    scaled_eps,
)


class TestScaledEps:
    def test_preserves_vertex_budget(self):
        """ε_scaled · n_actual == ε_paper · n_paper."""
        eps = scaled_eps(1e-3, "dblp", 4500)
        assert eps * 4500 == pytest.approx(1e-3 * 226_413)

    def test_capped_at_half(self):
        assert scaled_eps(0.5, "dblp", 10) == 0.5

    def test_identity_at_paper_scale(self):
        assert scaled_eps(1e-3, "dblp", 226_413) == pytest.approx(1e-3)

    def test_unknown_dataset_rejected(self):
        with pytest.raises(KeyError):
            scaled_eps(1e-3, "enron", 100)


class TestExperimentConfig:
    def test_paper_grid_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.k_values == PAPER_K_VALUES == (20, 60, 100)
        assert cfg.eps_values == PAPER_EPS_VALUES == (1e-3, 1e-4)
        assert cfg.q == 0.01
        assert cfg.c == 2.0
        assert cfg.worlds == 100
        assert cfg.baseline_samples == 50

    def test_graph_memoised(self):
        cfg = quick_config()
        assert cfg.graph("dblp") is cfg.graph("dblp")

    def test_eps_for_uses_actual_size(self):
        cfg = quick_config(scale=0.1)
        n = cfg.graph("dblp").num_vertices
        assert cfg.eps_for("dblp", 1e-3) == scaled_eps(1e-3, "dblp", n)

    def test_quick_config_overrides(self):
        cfg = quick_config(worlds=7)
        assert cfg.worlds == 7
        assert cfg.scale == 0.2

    @pytest.mark.parametrize("field", ["worlds", "baseline_samples"])
    def test_zero_samples_rejected(self, field):
        """A mean over zero worlds or releases is an empty-slice NaN."""
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**{field: 0})
