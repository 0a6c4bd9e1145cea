"""Seed-equivalence pins: serial == sharded at 1/2/4 workers, bit for bit.

Each test phrases one engine's workload as a ``build(executor)``
callable and runs it through the :mod:`tests.exec.equivalence` harness.
These are the contracts that make ``--workers N`` safe to default on:
parallelism must never be observable in the numbers.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import run_obfuscation_sweep
from repro.graphs.generators import barabasi_albert
from repro.worlds.estimator import BatchStatisticsEngine, WorldStatisticsEstimator
from repro.worlds.releases import stream_releases

from tests.exec.equivalence import (
    array_dicts_equal,
    assert_seed_equivalent,
    random_uncertain,
    summaries_equal,
    sweeps_equal,
)


@pytest.fixture(scope="module")
def uncertain():
    """~60 vertices, 200 candidate pairs — real structure, fast worlds."""
    return random_uncertain(60, 200, seed=7)


class TestWorldStatistics:
    def test_estimator_run(self, uncertain):
        def build(executor):
            estimator = WorldStatisticsEstimator(
                uncertain, distance_seed=0, executor=executor
            )
            return estimator.run(worlds=16, seed=5)

        summaries = assert_seed_equivalent(build, summaries_equal)
        assert all(len(s.values) == 16 for s in summaries.values())

    def test_estimator_run_exact_distance_backend(self, uncertain):
        # no ANF register stack: the keep-matrix chunk rule + BFS kernels
        def build(executor):
            estimator = WorldStatisticsEstimator(
                uncertain,
                distance_backend="exact",
                distance_seed=0,
                executor=executor,
            )
            return estimator.run(worlds=8, seed=11)

        assert_seed_equivalent(build, summaries_equal, workers=(2,))


class TestReleaseUnions:
    def test_evaluate_stream_over_perturbation_releases(self):
        graph = barabasi_albert(80, 3, seed=1)

        def build(executor):
            engine = BatchStatisticsEngine(distance_seed=0)
            batches = stream_releases(
                graph, "perturbation", 0.05, 12, seed=3, chunk_size=4
            )
            return engine.evaluate_stream(batches, executor=executor)

        values = assert_seed_equivalent(build, array_dicts_equal)
        assert all(v.shape == (12,) for v in values.values())


class TestTable2Grid:
    def test_full_grid_rows(self):
        config = ExperimentConfig(
            datasets=("dblp",),
            scale=0.1,
            k_values=(20,),
            eps_values=(1e-3,),
            worlds=8,
            attempts=2,
            delta=0.05,
            seed=0,
        )

        def build(executor):
            return run_obfuscation_sweep(config, executor=executor)

        sweep = assert_seed_equivalent(build, sweeps_equal)
        assert len(sweep) == 1
        assert sweep[0].result.success
