"""Tests for :class:`repro.worlds.WorldBatch` — sampling determinism.

The load-bearing property: a batch drawn with seed ``s`` reproduces the
*exact* edge sets of ``WorldSampler.sample_many`` with the same seed
(ISSUE 2 satellite).  Everything downstream (statistics equivalence)
rests on it.
"""

import numpy as np
import pytest

from repro.uncertain.graph import UncertainGraph
from repro.uncertain.sampling import WorldSampler
from repro.worlds import WorldBatch

from tests.worlds.conftest import random_uncertain


class TestSeedEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 42, 2**40 + 3])
    def test_reproduces_sample_many(self, small_uncertain, seed):
        W = 9
        batch = WorldBatch.sample(small_uncertain, W, seed=seed)
        sequential = list(WorldSampler(small_uncertain).sample_many(W, seed=seed))
        for w in range(W):
            assert batch.world_graph(w) == sequential[w]

    def test_property_random_graphs(self):
        """Property test over random graph shapes and seeds."""
        rng = np.random.default_rng(99)
        for trial in range(10):
            n = int(rng.integers(2, 40))
            pairs = int(rng.integers(0, max(1, n * (n - 1) // 4)))
            ug = random_uncertain(n, pairs, seed=trial) if pairs else UncertainGraph(n)
            seed = int(rng.integers(0, 2**31))
            W = int(rng.integers(1, 12))
            batch = WorldBatch.sample(ug, W, seed=seed)
            sequential = list(WorldSampler(ug).sample_many(W, seed=seed))
            for w in range(W):
                assert batch.world_graph(w) == sequential[w]

    def test_shared_generator_interleaves(self, small_uncertain):
        """Drawing from one Generator consumes the same stream positions."""
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        batch = WorldBatch.sample(small_uncertain, 6, seed=rng_a)
        sequential = list(WorldSampler(small_uncertain).sample_many(6, seed=rng_b))
        for w in range(6):
            assert batch.world_graph(w) == sequential[w]
        # both generators must now be at the same stream position
        assert rng_a.random() == rng_b.random()


class TestViews:
    def test_shapes(self, small_uncertain):
        batch = WorldBatch.sample(small_uncertain, 5, seed=0)
        assert batch.num_worlds == 5
        assert batch.num_vertices == small_uncertain.num_vertices
        assert batch.num_candidate_pairs == small_uncertain.num_candidate_pairs
        assert batch.keep_matrix().shape == (5, batch.num_candidate_pairs)

    def test_bitpack_roundtrip(self, small_uncertain):
        batch = WorldBatch.sample(small_uncertain, 7, seed=3)
        keep = batch.keep_matrix()
        for w in range(7):
            np.testing.assert_array_equal(batch.world_mask(w), keep[w])
        # packed storage is 8x smaller than the boolean matrix
        assert batch.nbytes <= keep.size // 8 + 7 * 1

    def test_world_edge_counts_match_masks(self, small_uncertain):
        batch = WorldBatch.sample(small_uncertain, 11, seed=1)
        counts = [batch.world_graph(w).num_edges for w in range(11)]
        np.testing.assert_array_equal(counts, batch.keep_matrix().sum(axis=1))

    def test_lanes_match_keep_matrix(self, small_uncertain):
        batch = WorldBatch.sample(small_uncertain, 70, seed=2)
        keep = batch.keep_matrix()
        us, vs, lanes = batch.lanes(3, 67)
        assert lanes.dtype == np.uint64 and np.all(lanes != 0)
        for w in range(64):
            bit = (lanes >> np.uint64(w)) & np.uint64(1) == 1
            got = set(zip(us[bit].tolist(), vs[bit].tolist()))
            assert got == set(batch.world_graph(3 + w).edges())
        # pairs no world of the slice keeps are dropped
        assert len(us) == int(keep[3:67].any(axis=0).sum())

    def test_lanes_bounds(self, small_uncertain):
        batch = WorldBatch.sample(small_uncertain, 70, seed=2)
        with pytest.raises(IndexError):
            batch.lanes(0, 65)
        us, vs, lanes = batch.lanes(5, 5)
        assert len(us) == len(vs) == len(lanes) == 0

    def test_csr_matches_per_world_graphs(self, small_uncertain):
        batch = WorldBatch.sample(small_uncertain, 3, seed=4)
        indptr, indices = batch.csr()
        n = batch.num_vertices
        assert len(indptr) == 3 * n + 1
        for w in range(3):
            world = batch.world_graph(w)
            g_indptr, g_indices = world.indptr, world.indices
            lo, hi = indptr[w * n], indptr[(w + 1) * n]
            np.testing.assert_array_equal(indptr[w * n : (w + 1) * n + 1] - lo,
                                          g_indptr)
            np.testing.assert_array_equal(indices[lo:hi] - w * n, g_indices)

    def test_world_mask_bounds(self, small_uncertain):
        batch = WorldBatch.sample(small_uncertain, 2, seed=0)
        with pytest.raises(IndexError):
            batch.world_mask(2)
        with pytest.raises(IndexError):
            batch.world_mask(-1)


class TestEdgeCases:
    def test_empty_candidate_set(self):
        batch = WorldBatch.sample(UncertainGraph(6), 4, seed=0)
        assert batch.num_candidate_pairs == 0
        assert all(g.num_edges == 0 for g in batch.graphs())

    def test_zero_worlds(self, small_uncertain):
        batch = WorldBatch.sample(small_uncertain, 0, seed=0)
        assert batch.num_worlds == 0
        assert list(batch.graphs()) == []

    def test_negative_worlds_rejected(self, small_uncertain):
        with pytest.raises(ValueError):
            WorldBatch.sample(small_uncertain, -1, seed=0)

    def test_certain_and_impossible_pairs(self):
        ug = UncertainGraph.from_arrays(
            3, [0, 1], [1, 2], [1.0, 0.0], keep_zero=True
        )
        batch = WorldBatch.sample(ug, 8, seed=0)
        for g in batch.graphs():
            assert g.has_edge(0, 1) and not g.has_edge(1, 2)

    def test_from_keep_matrix_shape_check(self, small_uncertain):
        us, vs, _ = small_uncertain.pair_arrays()
        with pytest.raises(ValueError, match="keep matrix"):
            WorldBatch.from_keep_matrix(
                small_uncertain.num_vertices, us, vs, np.ones((2, 3), dtype=bool)
            )


class TestUnionIncidence:
    """The cached sorted union structure behind csr()."""

    def test_union_shared_across_slices(self, small_uncertain):
        batch = WorldBatch.sample(small_uncertain, 8, seed=0)
        first = batch.slice(0, 3)
        second = batch.slice(3, 8)
        union = first.union_incidence()
        # one sort per candidate-pair set: every view sees the same object
        assert second.union_incidence() is union
        assert batch.union_incidence() is union

    def test_union_shared_when_built_before_slicing(self, small_uncertain):
        batch = WorldBatch.sample(small_uncertain, 6, seed=1)
        union = batch.union_incidence()
        assert batch.slice(1, 4).union_incidence() is union

    def test_sliced_csr_matches_full_batch_csr(self, small_uncertain):
        batch = WorldBatch.sample(small_uncertain, 6, seed=2)
        indptr, indices = batch.csr()
        n = batch.num_vertices
        sub = batch.slice(2, 5)
        sub_indptr, sub_indices = sub.csr()
        for w_sub, w in enumerate(range(2, 5)):
            lo, hi = indptr[w * n], indptr[(w + 1) * n]
            s_lo, s_hi = sub_indptr[w_sub * n], sub_indptr[(w_sub + 1) * n]
            # same neighbour lists modulo the world-offset convention
            np.testing.assert_array_equal(
                indices[lo:hi] - w * n, sub_indices[s_lo:s_hi] - w_sub * n
            )

    def test_union_slot_order_is_head_then_tail(self, small_uncertain):
        batch = WorldBatch.sample(small_uncertain, 2, seed=3)
        union = batch.union_incidence()
        keys = union.heads * np.int64(batch.num_vertices) + union.tails
        assert (np.diff(keys) > 0).all()
        # each candidate pair contributes exactly two directed incidences
        assert len(union.pair) == 2 * batch.num_candidate_pairs


class TestReadOnlyInputs:
    """Every array a pool worker inherits with a batch is read-only, so a
    kernel that wrote into one in place raises instead of corrupting
    what the parent and the other worlds read."""

    @staticmethod
    def _inherited(batch):
        union = batch.union_incidence()
        return {
            "packed": batch._packed,
            "slice packed": batch.slice(0, 1)._packed,
            "us": batch._us,
            "vs": batch._vs,
            "union heads": union.heads,
            "union tails": union.tails,
            "union pair": union.pair,
        }

    @staticmethod
    def _batches(uncertain):
        from repro.graphs.generators import erdos_renyi
        from repro.worlds.releases import sample_releases

        graph = erdos_renyi(30, 0.2, seed=4)
        us, vs, ps = uncertain.pair_arrays()
        keep = np.random.default_rng(0).random((3, len(ps))) < ps
        yield "sample", WorldBatch.sample(uncertain, 3, seed=0)
        yield "keep matrix", WorldBatch.from_keep_matrix(
            uncertain.num_vertices, us, vs, keep
        )
        for scheme in ("sparsification", "perturbation"):
            yield scheme, sample_releases(graph, scheme, 0.3, 3, seed=1)

    def test_worker_inputs_are_frozen(self, small_uncertain):
        for source, batch in self._batches(small_uncertain):
            for name, array in self._inherited(batch).items():
                assert not array.flags.writeable, (source, name)
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0
