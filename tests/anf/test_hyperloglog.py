"""Tests for the HyperLogLog register helpers."""

import numpy as np
import pytest

from repro.anf.hyperloglog import estimate_many, init_registers, splitmix64


class TestSplitmix:
    def test_deterministic(self):
        x = np.arange(10, dtype=np.uint64)
        assert np.array_equal(splitmix64(x), splitmix64(x))

    def test_distinct_inputs_distinct_outputs(self):
        out = splitmix64(np.arange(10000, dtype=np.uint64))
        assert len(np.unique(out)) == 10000

    def test_bit_mixing(self):
        """Consecutive ids land in (approximately) uniform buckets."""
        out = splitmix64(np.arange(64000, dtype=np.uint64))
        buckets = (out & np.uint64(63)).astype(int)
        counts = np.bincount(buckets, minlength=64)
        assert counts.min() > 700  # uniform ≈ 1000 per bucket


class TestVectorised:
    def test_init_registers_shape(self):
        regs = init_registers(50, b=6)
        assert regs.shape == (50, 64)
        # exactly one register set per singleton
        assert ((regs > 0).sum(axis=1) == 1).all()

    def test_singleton_estimates_near_one(self):
        regs = init_registers(100, b=8)
        est = estimate_many(regs)
        assert np.allclose(est, 1.0, atol=0.6)

    def test_seed_changes_registers(self):
        a = init_registers(20, b=6, seed=0)
        b2 = init_registers(20, b=6, seed=1)
        assert not np.array_equal(a, b2)

    def test_union_estimate_scaling(self):
        """Max-merging k singleton rows estimates ≈ k."""
        regs = init_registers(2000, b=10, seed=3)
        merged = regs.max(axis=0)
        est = estimate_many(merged[None, :])[0]
        assert est == pytest.approx(2000, rel=0.15)

    def test_invalid_b(self):
        with pytest.raises(ValueError):
            init_registers(10, b=1)


class TestRegisterUnion:
    """Counter semantics of register rows: the union of two sets is the
    elementwise max of their rows, which is how HyperANF grows balls."""

    def test_empty_estimate_zero(self):
        assert estimate_many(np.zeros(256, dtype=np.uint8))[0] == pytest.approx(
            0.0, abs=1.0
        )

    def test_duplicates_ignored(self):
        row = init_registers(5, b=8, seed=2)[3]
        merged = np.maximum.reduce([row] * 100)
        assert estimate_many(merged)[0] == pytest.approx(1.0, abs=0.5)

    @pytest.mark.parametrize("true_count", [100, 1000, 10000])
    def test_estimate_accuracy(self, true_count):
        """Relative error should be within ~4σ of the 1.04/√m guarantee."""
        merged = init_registers(true_count, b=10, seed=0).max(axis=0)
        rel_err = abs(estimate_many(merged)[0] - true_count) / true_count
        assert rel_err < 4 * 1.04 / np.sqrt(1024)

    def test_merge_is_union(self):
        regs = init_registers(750, b=10, seed=0)
        a = regs[:500].max(axis=0)
        b = regs[250:].max(axis=0)
        assert estimate_many(np.maximum(a, b))[0] == pytest.approx(750, rel=0.15)

    def test_one_dimensional_row_accepted(self):
        regs = init_registers(40, b=6, seed=1)
        merged = regs.max(axis=0)
        est = estimate_many(merged)
        assert est.shape == (1,)
        assert est[0] == estimate_many(merged[None, :])[0]

    def test_wide_dtype_matches_table(self):
        """The tabulated 2^-r lookup agrees bit-for-bit with np.exp2."""
        regs = np.maximum.accumulate(init_registers(3000, b=8, seed=4), axis=0)
        rows = regs[::100]
        assert np.array_equal(
            estimate_many(rows), estimate_many(rows.astype(np.int64))
        )

    def test_seeds_give_independent_noise(self):
        """Jackknifed runs need distinct but equally accurate estimates."""
        estimates = [
            estimate_many(init_registers(2000, b=10, seed=s).max(axis=0))[0]
            for s in range(6)
        ]
        assert len(set(estimates)) > 1
        assert all(abs(e - 2000) / 2000 < 4 * 1.04 / np.sqrt(1024) for e in estimates)

    def test_b_above_sixteen_rejected(self):
        with pytest.raises(ValueError):
            init_registers(10, b=17)
