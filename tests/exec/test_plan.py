"""The world engine's sizing rules, and the slices ``evaluate`` cuts by them."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exec import ChunkExecutor
from repro.exec.plan import (
    ANF_REGISTER_STACK_BYTES,
    KEEP_MATRIX_BYTES,
    PACKED_DRAW_BYTES,
    draw_rows_per_pass,
    world_eval_chunk_size,
)
from repro.worlds import BatchStatisticsEngine, WorldBatch

from tests.worlds.conftest import force_slices, random_uncertain

#: One structural and one ANF name, so every batch has two kernel groups.
_NAMES = ["S_NE", "S_APD"]


class TestAutoRules:
    def test_world_eval_anf_bounds_register_stack(self):
        n, b = 1000, 6  # the engine's HyperANF register exponent
        size = world_eval_chunk_size(n, 10, anf=True)
        assert size == ANF_REGISTER_STACK_BYTES // (n << b)
        # the next world would overflow the ~2 MB register-stack bound
        assert (size + 1) * (n << b) > ANF_REGISTER_STACK_BYTES

    def test_world_eval_plain_bounds_keep_matrix(self):
        m = 50_000
        size = world_eval_chunk_size(1000, m, anf=False)
        assert size == KEEP_MATRIX_BYTES // m

    def test_world_eval_clamps_to_one_on_huge_graphs(self):
        # the PR-8 regression: a zero chunk size on paper-scale n
        assert world_eval_chunk_size(10**9, 10**12, anf=True) == 1
        assert world_eval_chunk_size(10**9, 10**12, anf=False) == 1

    def test_draw_rows_bounds_uniform_transient(self):
        m = 123_456
        assert draw_rows_per_pass(m) == PACKED_DRAW_BYTES // m
        assert draw_rows_per_pass(10**12) == 1


class TestConsolidation:
    """The sizing conventions come from one constant each."""

    @pytest.mark.parametrize(
        "releases,sizes", [(70, [32, 32, 6]), (32, [32]), (33, [32, 1])]
    )
    def test_release_stream_batches_are_release_chunk(self, releases, sizes):
        from repro.graphs.generators import erdos_renyi
        from repro.worlds.releases import RELEASE_CHUNK, stream_releases

        assert RELEASE_CHUNK == 32
        graph = erdos_renyi(10, 0.3, seed=0)
        batches = stream_releases(graph, "sparsification", 0.5, releases, seed=0)
        assert [b.num_worlds for b in batches] == sizes

    def test_packed_draw_uses_planner_rule(self):
        from repro.worlds import batch

        assert batch.draw_rows_per_pass is draw_rows_per_pass


class TestEvaluateSlices:
    """``evaluate`` cuts each kernel group's worlds into the contiguous
    slices ``range(0, W, size)``, whichever backend runs them."""

    @staticmethod
    def _batch(worlds):
        return WorldBatch.sample(random_uncertain(12, 20, seed=5), worlds, seed=1)

    @staticmethod
    def _record_slices(monkeypatch):
        """Record ``(group, packed keep bits)`` of every in-process slice."""
        seen = []
        inner = BatchStatisticsEngine._evaluate_slice

        def recording(self, batch, names):
            seen.append((list(names), batch.packed_bits.copy()))
            return inner(self, batch, names)

        monkeypatch.setattr(BatchStatisticsEngine, "_evaluate_slice", recording)
        return seen

    @pytest.mark.parametrize(
        "total,size", [(1, 1), (10, 3), (10, 10), (10, 100), (97, 8)]
    )
    def test_slices_partition_worlds(self, monkeypatch, total, size):
        batch = self._batch(total)
        force_slices(monkeypatch, batch, size)
        seen = self._record_slices(monkeypatch)
        engine = BatchStatisticsEngine()
        groups = engine.plan(batch, _NAMES)
        assert [s for _, s in groups] == [size, size]
        engine.evaluate(batch, _NAMES)
        # group by group, structural first, each group in world order
        assert [g for g, _ in seen] == [
            g for g, s in groups for _ in range(0, total, s)
        ]
        for group, _ in groups:
            parts = [bits for g, bits in seen if g == group]
            assert all(1 <= len(bits) <= size for bits in parts)
            np.testing.assert_array_equal(
                np.concatenate(parts), batch.packed_bits
            )

    def test_pool_runs_the_in_process_slices(self, monkeypatch):
        batch = self._batch(10)
        force_slices(monkeypatch, batch, 3)
        seen = self._record_slices(monkeypatch)
        engine = BatchStatisticsEngine()
        serial = engine.evaluate(batch, _NAMES)
        shipped = []
        with ChunkExecutor(backend="process", workers=2) as ex:
            inner = ex.map

            def recording_map(fn, tasks, **kwargs):
                tasks = list(tasks)
                shipped.extend((list(t[1]), t[2]) for t in tasks)
                return inner(fn, tasks, **kwargs)

            monkeypatch.setattr(ex, "map", recording_map)
            pooled = engine.evaluate(batch, _NAMES, executor=ex)
        assert len(shipped) == len(seen) == 2 * 4
        for (g_pool, bits_pool), (g_serial, bits_serial) in zip(shipped, seen):
            assert g_pool == g_serial
            np.testing.assert_array_equal(bits_pool, bits_serial)
        for name in _NAMES:
            np.testing.assert_array_equal(pooled[name], serial[name])
