"""Oracle pins for the stacked fold-in pass and split entropies (PR 5).

``fold_in_staircase`` is the array probe path's hot loop: each
row's Bernoulli entries collapse into their product PMF and convolve
into the warm row.  The oracle is the sequential
:func:`tests.oracles.fold.fold_in_bernoulli` chain, which
``test_posterior_batch.py`` pins against the Lemma-1 DP itself.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.obfuscation_check import (
    DegreePosterior,
    column_mass_stack,
    entropies_from_column_mass,
)
from repro.core.posterior_batch import fold_in_staircase
from tests.oracles.fold import fold_in_bernoulli
from tests.oracles.posterior import poisson_binomial_pmf_batch


def _sequential_fold(rows: np.ndarray, indptr, data) -> np.ndarray:
    out = rows.copy()
    for r in range(rows.shape[0]):
        for p in data[indptr[r] : indptr[r + 1]]:
            out[r : r + 1] = fold_in_bernoulli(out[r : r + 1], np.array([p]))
    return out


def _random_case(rng, rows=200, width=30, max_count=15):
    mat = rng.random((rows, width))
    mat /= mat.sum(axis=1, keepdims=True)
    counts = rng.integers(0, max_count, rows)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    data = rng.random(indptr[-1])
    return mat, indptr, data


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestFoldInStaircase:
    def test_matches_sequential_fold(self, rng):
        rows, indptr, data = _random_case(rng)
        out = fold_in_staircase(rows, indptr, data)
        oracle = _sequential_fold(rows, indptr, data)
        assert np.abs(out - oracle).max() <= 1e-12

    def test_wide_rows_with_support_hint(self, rng):
        """Support trimming is an exact no-op wherever rows are zero."""
        rows = np.zeros((64, 139))
        support = rng.integers(1, 20, 64)
        for r in range(64):
            vals = rng.random(support[r])
            rows[r, : support[r]] = vals / vals.sum()
        counts = rng.integers(0, 40, 64)
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        data = rng.random(indptr[-1])
        out = fold_in_staircase(rows, indptr, data, support=support)
        oracle = _sequential_fold(rows, indptr, data)
        assert np.abs(out - oracle).max() <= 1e-12

    def test_cold_rows_equal_pmf_batch(self, rng):
        """Folding into δ₀ rows reproduces the Poisson-binomial PMF."""
        counts = rng.integers(1, 12, 100)
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        data = rng.random(indptr[-1])
        width = int(counts.max()) + 1
        rows = np.zeros((100, width))
        rows[:, 0] = 1.0
        out = fold_in_staircase(rows, indptr, data)
        padded = np.zeros((100, int(counts.max())))
        for r in range(100):
            padded[r, : counts[r]] = data[indptr[r] : indptr[r + 1]]
        oracle = poisson_binomial_pmf_batch(padded, support=width - 1)
        assert np.abs(out - oracle).max() <= 1e-12

    def test_empty_entries_pass_through(self, rng):
        rows, _, _ = _random_case(rng)
        indptr = np.zeros(rows.shape[0] + 1, dtype=np.int64)
        out = fold_in_staircase(rows, indptr, np.empty(0))
        np.testing.assert_array_equal(out, rows)
        assert out is not rows  # a copy unless overwrite is requested

    def test_active_mask_skips_rows(self, rng):
        rows, indptr, data = _random_case(rng)
        active = rng.random(rows.shape[0]) < 0.5
        out = fold_in_staircase(rows, indptr, data, active=active)
        oracle = _sequential_fold(rows, indptr, data)
        np.testing.assert_array_equal(out[~active], rows[~active])
        assert np.abs(out[active] - oracle[active]).max() <= 1e-12

    def test_overwrite_in_place(self, rng):
        rows, indptr, data = _random_case(rng)
        buf = np.ascontiguousarray(rows.copy())
        out = fold_in_staircase(buf, indptr, data, overwrite=True)
        assert out is buf
        assert np.abs(buf - _sequential_fold(rows, indptr, data)).max() <= 1e-12

    def test_overwrite_requires_contiguous_float64(self, rng):
        rows, indptr, data = _random_case(rng)
        with pytest.raises(ValueError, match="C-contiguous"):
            fold_in_staircase(
                rows[:, ::2], indptr, data, overwrite=True
            )

    def test_validation(self, rng):
        rows, indptr, data = _random_case(rng)
        with pytest.raises(ValueError, match="indptr"):
            fold_in_staircase(rows, indptr[:-2], data)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            fold_in_staircase(rows, indptr, data + 2.0)
        with pytest.raises(ValueError, match="support"):
            fold_in_staircase(rows, indptr, data, support=np.ones(3, dtype=int))

    def test_width_one_rows_scale_by_survival(self, rng):
        """Width-1 truncation reduces every fold to a ∏(1-p) scale."""
        rows = np.array([[1.0], [0.5], [0.25]])
        counts = np.array([2, 0, 1])
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        data = np.array([0.3, 0.5, 0.2])
        out = fold_in_staircase(rows, indptr, data)
        oracle = _sequential_fold(rows, indptr, data)
        np.testing.assert_allclose(out, oracle, atol=1e-15)

    def test_single_heavy_row(self, rng):
        """Rows with many entries exercise the deep-degree bucket: one
        heavy row among light ones into δ₀ rows, then rows of 97–300
        entries into warm rows, untruncated and truncated."""
        rows = np.zeros((3, 70))
        rows[:, 0] = 1.0
        warm = rng.random((5, 320))
        warm[:, 20:] = 0.0
        warm /= warm.sum(axis=1, keepdims=True)
        cases = [
            (rows, np.array([60, 0, 2])),
            (warm, np.array([97, 300, 0, 150, 3])),
            (warm[:, :250].copy(), np.array([300, 97, 0, 150, 3])),
        ]
        for base, counts in cases:
            indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
            data = rng.random(indptr[-1]) * 0.9
            out = fold_in_staircase(base, indptr, data)
            oracle = _sequential_fold(base, indptr, data)
            assert np.abs(out - oracle).max() <= 1e-12


def _stack_entropies(stack: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """The stacked Definition-2 entropies, as the probe path forms them."""
    return entropies_from_column_mass(*column_mass_stack(stack, omegas))


class TestColumnEntropiesStack:
    def test_matches_per_attempt_evaluation(self, rng):
        stack = rng.random((3, 50, 20))
        omegas = np.array([0, 3, 7, 19, 25, -1])
        batched = _stack_entropies(stack, omegas)
        for a in range(3):
            expected = DegreePosterior(stack[a]).column_entropies(omegas)
            np.testing.assert_array_equal(batched[a], expected)

    def test_zero_mass_columns_are_zero(self):
        stack = np.zeros((2, 10, 5))
        stack[:, :, 1] = 0.1
        out = _stack_entropies(stack, np.array([0, 1]))
        assert (out[:, 0] == 0.0).all()
        assert (out[:, 1] > 0.0).all()

    def test_validation(self):
        with pytest.raises(ValueError, match="3-D"):
            column_mass_stack(np.zeros((4, 5)), np.array([0]))
