"""Seed-equivalence pins: serial == sharded at 1/2/4 workers, bit for bit.

Each test phrases one engine's workload as a ``build(executor)``
callable and runs it through the :mod:`tests.exec.equivalence` harness.
These are the contracts that make ``--workers N`` safe to default on:
parallelism must never be observable in the numbers.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.exec import ChunkExecutor
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import run_obfuscation_sweep
from repro.graphs.generators import barabasi_albert
from repro.stats.degree import num_edges
from repro.stats.registry import paper_statistics
from repro.worlds import releases
from repro.worlds.batch import WorldBatch
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
            estimator = WorldStatisticsEstimator(uncertain, executor=executor)
            return estimator.run(worlds=16, seed=5)

        summaries = assert_seed_equivalent(build, summaries_equal)
        assert all(len(s.values) == 16 for s in summaries.values())

    def test_estimator_run_exact_distance_backend(self, uncertain):
        # no ANF register stack: the keep-matrix chunk rule + the family's
        # BFS callables, rebuilt in each worker from the family's spec
        def build(executor):
            estimator = WorldStatisticsEstimator(
                uncertain,
                paper_statistics(distance_backend="exact", seed=0),
                executor=executor,
            )
            return estimator.run(worlds=8, seed=11)

        assert_seed_equivalent(build, summaries_equal, workers=(2,))


    def test_estimator_run_two_kernel_groups(self):
        # n > 16,384: the ANF rule gives one world per task while the
        # degree family and S_CC share one task, listed first
        uncertain = random_uncertain(20_000, 400, seed=3, certain_fraction=0.5)
        engine = WorldStatisticsEstimator(uncertain)._engine
        batch = WorldBatch.sample(uncertain, 6, seed=0)
        plans = engine.plan(batch, list(engine.statistics))
        assert [len(range(0, 6, size)) for _, size in plans] == [1, 6]
        assert "S_CC" in plans[0][0]

        def build(executor):
            estimator = WorldStatisticsEstimator(uncertain, executor=executor)
            return estimator.run(worlds=6, seed=2)

        assert_seed_equivalent(build, summaries_equal)


class TestReleaseUnions:
    def test_evaluate_over_perturbation_release_stream(self, monkeypatch):
        # three 4-release batches, each with its own union columns
        graph = barabasi_albert(80, 3, seed=1)
        monkeypatch.setattr(releases, "RELEASE_CHUNK", 4)

        def build(executor):
            engine = BatchStatisticsEngine()
            parts = [
                engine.evaluate(batch, executor=executor)
                for batch in stream_releases(graph, "perturbation", 0.05, 12, seed=3)
            ]
            return {
                name: np.concatenate([part[name] for part in parts])
                for name in engine.statistics
            }

        values = assert_seed_equivalent(build, array_dicts_equal)
        assert all(v.shape == (12,) for v in values.values())


class TestInProcessFallback:
    def test_opaque_callable_evaluates_in_parent(self, uncertain):
        """A local function can be neither pickled nor rebuilt in a
        worker, so a process executor leaves its slices in this process,
        with the serial values."""
        calls = []

        def halved(graph):
            calls.append(os.getpid())
            return graph.num_edges / 2

        def build(executor):
            mapping = {"S_NE": num_edges, "halved": halved}
            batch = WorldBatch.sample(uncertain, 6, seed=4)
            return BatchStatisticsEngine(mapping).evaluate(batch, executor=executor)

        serial = build(None)
        with ChunkExecutor(backend="process", workers=2) as ex:
            pooled = build(ex)
        assert array_dicts_equal(serial, pooled)
        np.testing.assert_array_equal(pooled["halved"], pooled["S_NE"] / 2)
        assert calls == [os.getpid()] * 12


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
