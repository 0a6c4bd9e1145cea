"""The unified chunk planner: decomposition invariants + pinned auto rules."""

from __future__ import annotations

import inspect

import pytest

from repro.exec.plan import (
    ANF_REGISTER_STACK_BYTES,
    KEEP_MATRIX_BYTES,
    PACKED_DRAW_BYTES,
    RELEASE_CHUNK_DEFAULT,
    SAMPLE_CHUNK_DEFAULT,
    Chunk,
    ChunkPlan,
    draw_rows_per_pass,
    world_eval_chunk_size,
)


class TestChunkPlan:
    @pytest.mark.parametrize(
        "total,chunk_size", [(1, 1), (10, 3), (10, 10), (10, 100), (97, 8)]
    )
    def test_chunks_partition_total(self, total, chunk_size):
        plan = ChunkPlan("worlds", total, chunk_size)
        chunks = list(plan)
        assert len(chunks) == len(plan)
        assert chunks[0].lo == 0
        assert chunks[-1].hi == total
        for i, chunk in enumerate(chunks):
            assert chunk.index == i
            assert 1 <= chunk.count <= chunk_size
        # contiguous: each chunk starts where the previous ended
        for prev, cur in zip(chunks, chunks[1:]):
            assert cur.lo == prev.hi

    def test_empty_total_yields_no_chunks(self):
        plan = ChunkPlan("rows", 0, 5)
        assert len(plan) == 0
        assert list(plan) == []

    def test_deterministic(self):
        a = list(ChunkPlan("worlds", 100, 7))
        b = list(ChunkPlan("worlds", 100, 7))
        assert a == b  # frozen dataclasses compare by value

    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError, match="chunk_size"):
            ChunkPlan("worlds", 10, 0)
        with pytest.raises(ValueError, match="total"):
            ChunkPlan("worlds", -1, 4)

    def test_chunk_count_property(self):
        assert Chunk(0, 3, 11).count == 8

    def test_cells_plan_is_one_per_chunk(self):
        plan = ChunkPlan.cells(5)
        assert [c.count for c in plan] == [1] * 5

    def test_releases_plan_default(self):
        assert ChunkPlan.releases(100).chunk_size == RELEASE_CHUNK_DEFAULT
        assert ChunkPlan.releases(100, chunk_size=7).chunk_size == 7

    def test_worlds_plan_auto_matches_rule(self):
        plan = ChunkPlan.worlds(
            64, num_vertices=1000, num_candidate_pairs=5000, anf=True
        )
        assert plan.chunk_size == world_eval_chunk_size(
            1000, 5000, anf=True
        )


class TestAutoRules:
    def test_world_eval_anf_bounds_register_stack(self):
        n, b = 1000, 6
        size = world_eval_chunk_size(n, 10, anf=True, anf_b=b)
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
    """The three ad-hoc ``auto`` conventions now come from the planner."""

    def test_release_stream_default_is_planner_constant(self):
        from repro.worlds.releases import stream_releases

        default = inspect.signature(stream_releases).parameters["chunk_size"]
        assert default.default == RELEASE_CHUNK_DEFAULT

    def test_estimator_default_is_planner_constant(self):
        from repro.worlds.estimator import WorldStatisticsEstimator

        default = inspect.signature(
            WorldStatisticsEstimator.__init__
        ).parameters["chunk_size"]
        assert default.default == SAMPLE_CHUNK_DEFAULT

    def test_packed_draw_uses_planner_rule(self):
        from repro.worlds import batch

        assert batch.draw_rows_per_pass is draw_rows_per_pass
