"""The benchmark's own tests: shim, traced outputs, raw percentiles, schedule.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import os
from multiprocessing import resource_tracker, shared_memory

import numpy as np
import pytest

import repro.core.search as search_module
from repro.core.search import obfuscate
from repro.exec import make_executor
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import SweepEntry, table4_rows
from repro.graphs.datasets import dblp_like
from repro.obs import disable_tracing, enable_tracing

from perfbench import run
from perfbench.measure import percentile, samples_beyond, stop_resource_tracker
from perfbench.shim import (
    SITES,
    ShimError,
    TimingShim,
    _resolve,
    layer_metrics,
    silent_layers,
)
from perfbench.workloads import (
    COLD_OP,
    RATE,
    ServeWorkload,
    build_schedule,
    digest,
    release_digest,
)


class SmallServe(ServeWorkload):
    """serve-mixed on the n = 450 surrogate, so a traced run takes seconds."""

    scale = 0.1


def _raw(module: str, path: str):
    return _resolve(module, path)[2]


def _traced(run):
    """``run()`` under the shim with tracing on: ``(result, span records)``."""
    tracer = enable_tracing()
    try:
        with TimingShim():
            result = run()
    finally:
        disable_tracing()
    return result, tracer.finished


class TestShim:
    def test_missing_name_fails_before_wrapping_anything(self):
        original = search_module.generate_obfuscation
        shim = TimingShim([*SITES, ("core.gone", "repro.core.search", "no_such_function")])
        with pytest.raises(ShimError, match="no_such_function"):
            shim.install()
        assert search_module.generate_obfuscation is original

    def test_missing_class_fails(self):
        with pytest.raises(ShimError, match="NoSuchClass"):
            TimingShim([("x", "repro.worlds.batch", "NoSuchClass.sample")]).install()

    def test_install_wraps_every_site_and_restore_puts_originals_back(self):
        before = {(m, p): _raw(m, p) for _, m, p in SITES}
        with TimingShim():
            for layer, m, p in SITES:
                raw = _raw(m, p)
                func = raw.__func__ if isinstance(raw, classmethod) else raw
                assert func.__perfbench_layer__ == layer
                assert type(raw) is type(before[(m, p)])
        assert {(m, p): _raw(m, p) for _, m, p in SITES} == before

    def test_double_install_is_refused(self):
        with TimingShim():
            with pytest.raises(ShimError, match="already wrapped"):
                TimingShim().install()


class TestTracedRuns:
    def test_traced_search_equals_untraced(self):
        def search():
            return obfuscate(dblp_like(scale=0.1, seed=3), k=5, eps=0.1, seed=0,
                             attempts=2, delta=0.05)

        plain = search()
        traced, records = _traced(search)
        assert traced.sigma == plain.sigma
        assert release_digest(traced.uncertain) == release_digest(plain.uncertain)
        metrics, errors = layer_metrics(records)
        assert errors == []
        assert silent_layers(records, ("core.probe", "core.sampler", "core.entropy")) == []
        assert metrics["core.sampler_calls"] > 0

    def test_traced_utility_on_two_workers_equals_untraced(self):
        graph = dblp_like(scale=0.2, seed=1)
        result = obfuscate(graph, k=5, eps=0.1, seed=1, attempts=2, delta=0.1)
        config = ExperimentConfig(
            datasets=("dblp",), scale=0.2, k_values=(5,), eps_values=(0.1,),
            worlds=4, seed=1,
        )
        entry = SweepEntry("dblp", 5, 0.1, 0.1, result, graph)

        def rows():
            with make_executor(2) as executor:
                return table4_rows([entry], config, executor=executor)

        plain = rows()
        traced, records = _traced(rows)
        assert digest(traced) == digest(plain)
        metrics, errors = layer_metrics(records)
        assert errors == []
        # Kernel spans opened in the forked workers came back.
        assert metrics["exec.tasks"] >= 1 and metrics["worlds.anf_s"] > 0

    def test_traced_serve_run_passes_its_checks(self):
        _, metrics, errors, _ = run.traced(SmallServe(), 1, 0.6)
        assert errors == []
        assert metrics["serve.bfs_s"] > 0 and metrics["serve.bfs_passes"] > 0

    def test_bypassed_site_fails_the_traced_run(self, monkeypatch):
        # The BFS kernel still resolves where it is defined, but the engine
        # calls the name it imported, so a wrapper there never runs.
        sites = [
            (layer, "repro.uncertain.batch_queries" if layer == "serve.bfs" else module, path)
            for layer, module, path in SITES
        ]
        monkeypatch.setattr(run, "TimingShim", lambda: TimingShim(sites))
        _, metrics, errors, _ = run.traced(SmallServe(), 1, 0.6)
        assert metrics["serve.bfs_s"] == 0.0
        assert errors == ["layer serve.bfs recorded no span: its timing site is bypassed"]


class TestLayerAccounting:
    @staticmethod
    def span(id_, parent, name, wall, **attrs):
        return {"id": id_, "parent": parent, "name": name, "wall_s": wall, "attrs": attrs}

    def test_self_time_subtracts_children(self):
        records = [
            self.span(0, -1, "core.probe", 1.0),
            self.span(1, 0, "core.sampler", 0.4),
            self.span(2, 0, "core.entropy", 0.25),
            self.span(3, 2, "core.posterior_fold", 0.05),
        ]
        metrics, errors = layer_metrics(records)
        assert errors == []
        assert metrics["core.probe_s"] == 1.0
        assert metrics["core.probe_self_s"] == pytest.approx(0.35)
        assert metrics["core.entropy_s"] == pytest.approx(0.2)
        assert metrics["core.sampler_calls"] == 1

    def test_child_longer_than_parent_is_an_error(self):
        records = [self.span(0, -1, "core.probe", 1.0), self.span(1, 0, "core.sampler", 1.5)]
        assert layer_metrics(records)[1]

    def test_map_is_accounted_in_worker_seconds(self):
        records = [
            self.span(0, -1, "exec.map", 1.0, workers=2, tasks=2),
            self.span(1, 0, "worlds.evaluate", 0.9),
            self.span(2, 1, "worlds.anf", 0.6),
            self.span(3, 0, "worlds.evaluate", 0.8),
        ]
        metrics, errors = layer_metrics(records)
        assert errors == []
        assert metrics["exec.worker_busy_s"] == pytest.approx(1.7)
        assert metrics["exec.idle_s"] == pytest.approx(0.3)
        assert metrics["exec.utilisation"] == pytest.approx(0.85)
        assert metrics["worlds.eval_self_s"] == pytest.approx(1.1)
        assert metrics["exec.tasks"] == 2

    def test_silent_layers_names_each_layer_without_a_span(self):
        records = [self.span(0, -1, "core.probe", 1.0)]
        assert silent_layers(records, ("core.probe", "core.sampler")) == [
            "layer core.sampler recorded no span: its timing site is bypassed"
        ]


class TestPercentiles:
    def test_nearest_rank_on_raw_samples(self):
        samples = np.arange(1, 1001, dtype=float)
        assert percentile(samples, 0.50) == 500.0
        assert percentile(samples, 0.99) == 990.0
        assert samples_beyond(samples, percentile(samples, 0.99)) == 10

    def test_small_samples_and_ties(self):
        assert percentile([7.0], 0.99) == 7.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
        assert samples_beyond([1.0, 2.0, 2.0, 3.0], 2.0) == 1

    def test_percentile_is_an_observed_sample(self):
        samples = np.sort(np.random.default_rng(0).exponential(1e-4, 5000))
        assert percentile(samples, 0.5) in samples
        assert percentile(samples, 0.99) in samples

    @pytest.mark.parametrize("samples, q", [([], 0.5), ([1.0], 0.0), ([1.0], 1.5)])
    def test_rejects_bad_input(self, samples, q):
        with pytest.raises(ValueError):
            percentile(samples, q)


class TestResourceTracker:
    def test_stop_leaves_no_tracker_process(self):
        segment = shared_memory.SharedMemory(create=True, size=16)
        segment.close()
        segment.unlink()
        pid = resource_tracker._resource_tracker._pid
        assert pid is not None
        stop_resource_tracker()
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
        stop_resource_tracker()  # nothing left to stop


class TestSchedule:
    def test_same_seed_same_schedule(self):
        a, b = build_schedule(7, 500, 2.0), build_schedule(7, 500, 2.0)
        assert a.queries == b.queries and a.warm == b.warm and a.cold == b.cold
        assert np.array_equal(a.due, b.due)

    def test_other_seed_other_schedule(self):
        assert build_schedule(7, 500, 2.0).queries != build_schedule(8, 500, 2.0).queries

    def test_hot_requests_are_warmed_and_cold_sources_never_seen(self):
        schedule = build_schedule(3, 500, 2.0)
        assert len(schedule.queries) == 2000
        assert schedule.cold == [499, 999, 1499, 1999]
        warm = set(schedule.warm)
        cold = set(schedule.cold)
        assert all(q in warm for i, q in enumerate(schedule.queries) if i not in cold)
        seen = {q.source for q in schedule.warm}
        for i in schedule.cold:
            query = schedule.queries[i]
            assert query.op == COLD_OP and query.source not in seen
            seen.add(query.source)

    def test_requests_fall_due_at_the_rate(self):
        due = build_schedule(3, 500, 2.0).due
        assert len(due) == 2 * RATE
        assert np.allclose(np.diff(due), 1 / RATE)
