"""Edge-path coverage: failure branches and option combinations that the
mainline suites don't reach."""

import numpy as np
import pytest

from repro.core.search import obfuscate
from repro.core.types import ObfuscationParams
from repro.experiments.config import quick_config
from repro.experiments.harness import run_obfuscation_sweep, table4_rows
from repro.graphs.generators import erdos_renyi
from repro.graphs.graph import Graph


class TestSearchOptions:
    def test_params_bundle_path(self):
        g = erdos_renyi(60, 0.15, seed=0)
        params = ObfuscationParams(k=2, eps=0.3, attempts=1, delta=0.05)
        res = obfuscate(g, 2, 0.3, params=params, seed=1)
        assert res.success
        assert res.params is params

    def test_sigma_init_override(self):
        g = erdos_renyi(60, 0.15, seed=0)
        res = obfuscate(
            g, 2, 0.3, seed=1, attempts=1, delta=0.05, sigma_init=0.25
        )
        assert res.success
        # doubling starts at sigma_init, so no probe exceeds need
        assert res.trace[0].sigma == 0.25

    def test_uniform_weighting_end_to_end(self):
        g = erdos_renyi(70, 0.15, seed=2)
        res = obfuscate(
            g, 2, 0.3, seed=3, attempts=1, delta=0.05, weighting="uniform"
        )
        assert res.success

    def test_invalid_weighting_rejected(self):
        with pytest.raises(ValueError, match="weighting"):
            ObfuscationParams(k=2, eps=0.1, weighting="degreeish")

    def test_invalid_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            ObfuscationParams(k=2, eps=0.1, method="exakt")


class TestHarnessFailureCells:
    def test_table4_reports_nan_for_failed_cells(self):
        """A cell that cannot be obfuscated yields a nan rel_err row."""
        cfg = quick_config(
            scale=0.1,
            k_values=(200,),          # impossible on a 450-vertex surrogate
            eps_values=(1e-4,),
            attempts=1,
            delta=0.25,
        )
        # shrink the escalation chain so the failure is fast
        object.__setattr__(cfg, "c_chain", (2.0,))
        sweep = run_obfuscation_sweep(cfg)
        assert not sweep[0].result.success
        rows = table4_rows(sweep, cfg)
        assert rows[0]["variant"] == "real"
        assert np.isnan(rows[1]["rel_err"])


class TestCliBackends:
    def test_stats_exact_backend(self, tmp_path, capsys):
        from repro.cli import main
        from repro.graphs.io import write_edge_list

        graph_path = tmp_path / "g.txt"
        release_path = tmp_path / "r.txt"
        write_edge_list(erdos_renyi(40, 0.2, seed=0), graph_path)
        assert main(
            [
                "obfuscate",
                "--input", str(graph_path),
                "--output", str(release_path),
                "--k", "2", "--eps", "0.3",
                "--attempts", "1", "--delta", "0.1",
            ]
        ) == 0
        capsys.readouterr()
        assert main(
            [
                "stats",
                "--release", str(release_path),
                "--worlds", "3",
                "--backend", "exact",
            ]
        ) == 0
        assert "S_APD" in capsys.readouterr().out


class TestGraphBoundaries:
    def test_single_vertex_graph(self):
        g = Graph(1)
        assert g.num_pairs == 0
        assert list(g.edges()) == []

    def test_two_vertex_distance(self):
        from repro.stats.distance import distance_histogram

        g = Graph.from_edges(2, [(0, 1)])
        hist = distance_histogram(g)
        assert hist.counts[1] == 1.0
        assert hist.disconnected == 0.0

    def test_uniform_threshold_boundary(self):
        from repro.core.perturbation import UNIFORM_THRESHOLD, truncated_normal_ppf

        u = np.random.default_rng(0).random(2000)
        just_below = truncated_normal_ppf(u, np.full(2000, UNIFORM_THRESHOLD - 1e-6))
        just_above = truncated_normal_ppf(u, np.full(2000, UNIFORM_THRESHOLD + 1e-6))
        # both regimes are near-uniform at the threshold: means agree
        assert abs(just_below.mean() - just_above.mean()) < 0.05


class TestQueriesDeterminism:
    def test_reliability_deterministic(self):
        from repro.uncertain.graph import UncertainGraph
        from repro.uncertain.queries import reliability

        ug = UncertainGraph.from_pairs(4, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5)])
        a = reliability(ug, 0, 3, worlds=50, seed=9)
        b = reliability(ug, 0, 3, worlds=50, seed=9)
        assert a == b
