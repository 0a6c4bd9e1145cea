"""Batched-vs-sequential equivalence for the Table-6 comparison layer.

Pins the contract: ``baseline_utility_row``, ``achieved_k`` and
``calibrate_randomization`` produce the same values (≤1e-9; sampling-
level quantities exactly) as the one-release-at-a-time oracle in
``tests/oracles/worlds.py`` from the same seed — and the per-scheme RNG
stream does not depend on ``PYTHONHASHSEED``, so two interpreter
processes agree row-for-row.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.comparison import (
    achieved_k,
    baseline_utility_row,
    calibrate_randomization,
    scheme_stream,
)
from repro.experiments.config import quick_config
from repro.graphs.generators import erdos_renyi
from repro.stats.registry import PAPER_STATISTIC_NAMES
from repro.worlds.releases import RELEASE_SCHEMES

from tests.oracles import worlds as oracle


@pytest.fixture(scope="module")
def config():
    # exact distances keep the per-release evaluation fast and noise-free
    return quick_config(baseline_samples=6, distance_backend="exact")


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(90, 0.08, seed=5)


class TestBaselineRowEquivalence:
    @pytest.mark.parametrize("scheme", RELEASE_SCHEMES)
    @pytest.mark.parametrize("p", [0.05, 0.4, 0.9])
    def test_rows_match(self, graph, config, scheme, p):
        batched = baseline_utility_row(graph, scheme, p, config)
        sequential = oracle.baseline_utility_row(graph, scheme, p, config)
        assert batched["variant"] == sequential["variant"]
        for name in (*PAPER_STATISTIC_NAMES, "rel_err"):
            np.testing.assert_allclose(
                batched[name], sequential[name], atol=1e-9, rtol=0, err_msg=name
            )

    def test_shared_original_matches_recomputed(self, graph, config):
        from repro.stats.registry import paper_statistics

        stats = paper_statistics(
            distance_backend=config.distance_backend, seed=config.seed
        )
        original = {name: float(func(graph)) for name, func in stats.items()}
        a = baseline_utility_row(graph, "sparsification", 0.3, config)
        b = baseline_utility_row(
            graph, "sparsification", 0.3, config, original=original
        )
        assert a == b


class TestAchievedKEquivalence:
    @pytest.mark.parametrize("scheme", RELEASE_SCHEMES)
    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.5])
    def test_values_identical(self, graph, scheme, eps):
        batched = achieved_k(graph, scheme, 0.4, eps, releases=3, seed=7)
        sequential = oracle.achieved_k(graph, scheme, 0.4, eps, releases=3, seed=7)
        assert batched == sequential

    @pytest.mark.parametrize("scheme", RELEASE_SCHEMES)
    def test_skip_clamp_when_eps_n_exceeds_n(self, graph, scheme):
        """ε·n ≥ n clamps the skip index to the last (most anonymous) vertex."""
        batched = achieved_k(graph, scheme, 0.3, 1.5, releases=2, seed=1)
        sequential = oracle.achieved_k(graph, scheme, 0.3, 1.5, releases=2, seed=1)
        assert batched == sequential
        # the clamped value is the maximum anonymity level, so it cannot
        # be below the eps=0 (least-anonymous) value
        assert batched >= achieved_k(graph, scheme, 0.3, 0.0, releases=2, seed=1)


class TestCalibrationEquivalence:
    @pytest.mark.parametrize("scheme", RELEASE_SCHEMES)
    def test_calibrated_p_identical(self, graph, scheme):
        kwargs = dict(p_grid=(0.02, 0.08, 0.32, 0.9), releases=2, seed=3)
        batched = calibrate_randomization(graph, scheme, 4, 0.05, **kwargs)
        sequential = oracle.calibrate_randomization(graph, scheme, 4, 0.05, **kwargs)
        assert (np.isnan(batched) and np.isnan(sequential)) or (
            batched == sequential
        )

    def test_unreachable_target_is_nan(self, graph):
        p = calibrate_randomization(
            graph,
            "sparsification",
            10**9,
            0.0,
            p_grid=(0.1,),
            releases=1,
            seed=0,
        )
        assert np.isnan(p)


_SUBPROCESS_SCRIPT = """
import json, sys
from repro.experiments.comparison import baseline_utility_row
from repro.experiments.config import quick_config
from repro.graphs.generators import erdos_renyi

config = quick_config(baseline_samples=4, distance_backend="exact")
graph = erdos_renyi(60, 0.1, seed=2)
rows = [
    baseline_utility_row(graph, scheme, 0.3, config)
    for scheme in ("sparsification", "perturbation")
]
print(json.dumps(rows, sort_keys=True))
"""


class TestCrossProcessReproducibility:
    def test_scheme_stream_is_hashseed_free(self):
        """The per-scheme stream constant must not come from ``hash()``."""
        a = scheme_stream(0, "sparsification").random(4)
        b = scheme_stream(0, "sparsification").random(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, scheme_stream(0, "perturbation").random(4))

    def test_rows_identical_across_interpreters(self):
        """Regression: hash(scheme) seeded the baseline stream, so rows
        changed with PYTHONHASHSEED.  Two subprocesses forced to different
        hash seeds must now emit byte-identical Table-6 baseline rows."""
        src_dir = Path(__file__).resolve().parents[2] / "src"
        outputs = []
        for hash_seed in ("1", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = str(src_dir) + os.pathsep + env.get("PYTHONPATH", "")
            result = subprocess.run(
                [sys.executable, "-c", _SUBPROCESS_SCRIPT],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.append(result.stdout.strip())
        assert outputs[0] == outputs[1]
        rows = json.loads(outputs[0])
        assert len(rows) == 2 and all("rel_err" in r for r in rows)
