"""The batched Definition-2 reduction stays bit-identical to its oracles.

``column_mass_stack`` gathers and reduces one attempt at a time, and
``_column_entropies_split`` merges CLT rows per attempt block.  Both
must equal the frozen single-gather / ``np.add.at`` versions in
:mod:`tests.oracles.entropy_stack` exactly (``np.array_equal``, not a
tolerance): the search compares these entropies against ``log2 k``, so
one flipped bit can flip a threshold and change a release.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.generate import _column_entropies_split
from repro.core.obfuscation_check import (
    column_mass_stack,
    entropies_from_column_mass,
)
from tests.oracles import entropy_stack as oracle

#: Exact-side support cap of the probe path (AUTO_EXACT_LIMIT + 1).
X_WIDTH = 65
#: Full-width CLT rows reach past the cap.
CLT_WIDTH = 90
#: Negative, beyond-the-width and non-contiguous degrees, out of order.
OMEGAS = np.array([7, -3, 0, 2, 64, 65, 19, 200, 3, 41, -1, 13])
#: Degrees a Definition-2 check asks for: distinct, in range of the
#: CLT rows, some beyond the exact-side cap.
SPLIT_OMEGAS = np.array([0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 64, 70, 89])


def _sparse_stack(rng, t: int, n: int, width: int) -> np.ndarray:
    """Mostly-zero posterior-like rows with a few subnormals and a few
    negatives (which the ``c > 0`` mask must leave out of ``S``)."""
    stack = rng.random((t, n, width))
    stack[rng.random(stack.shape) < 0.9] = 0.0
    stack /= np.maximum(stack.sum(axis=2, keepdims=True), 1.0)
    flat = stack.reshape(-1)
    picks = rng.choice(flat.size, size=256, replace=False)
    flat[picks[:128]] = rng.random(128) * 1e-310
    flat[picks[128:]] = -rng.random(128) * 1e-3
    return stack


class TestColumnMassStack:
    @pytest.mark.parametrize("t", [1, 3, 5])
    # 9000 rows span several gather blocks and outrun numpy's
    # 8192-element reduction buffer.
    @pytest.mark.parametrize("n", [1000, 9000])
    def test_matches_single_gather_oracle(self, t, n):
        rng = np.random.default_rng(100 * t + n)
        stack = _sparse_stack(rng, t, n, X_WIDTH)
        totals, sums = column_mass_stack(stack, OMEGAS)
        want_totals, want_sums = oracle.column_mass_stack(stack, OMEGAS)
        assert np.array_equal(totals, want_totals)
        assert np.array_equal(sums, want_sums)
        assert np.array_equal(
            entropies_from_column_mass(totals, sums),
            entropies_from_column_mass(want_totals, want_sums),
        )

    def test_every_degree_out_of_range(self):
        stack = np.ones((2, 1000, 5))
        totals, sums = column_mass_stack(stack, np.array([-1, 5, 9]))
        assert not totals.any() and not sums.any()
        assert totals.shape == sums.shape == (2, 3)


def _clt_rows(rng, t: int, n: int, attempts) -> np.ndarray:
    """Sorted stacked row ids ``a·n + v`` of CLT rows in ``attempts``."""
    parts = [
        a * n + np.sort(rng.choice(n, size=40, replace=False)) for a in attempts
    ]
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


class TestSplitEntropies:
    @pytest.mark.parametrize("t", [1, 3, 5])
    @pytest.mark.parametrize("where", ["all", "first", "last", "none"])
    def test_matches_add_at_oracle(self, t, where):
        n = 1200
        rng = np.random.default_rng(t)
        stack = _sparse_stack(rng, t, n, X_WIDTH)
        attempts = {
            "all": range(t),
            "first": [0],
            "last": [t - 1],
            "none": [],
        }[where]
        extra_rows = _clt_rows(rng, t, n, attempts)
        extra = (
            _sparse_stack(rng, 1, len(extra_rows), CLT_WIDTH)[0]
            if len(extra_rows)
            else np.empty((0, CLT_WIDTH))
        )
        # The probe path blanks CLT rows on the exact side.
        Xf = stack.reshape(t * n, X_WIDTH)
        Xf[extra_rows] = 0.0

        got = _column_entropies_split(
            Xf, t, n, extra_rows, extra, SPLIT_OMEGAS
        )
        totals, sums = oracle.column_mass_stack(stack, SPLIT_OMEGAS)
        want = entropies_from_column_mass(
            *oracle.clt_merge(totals, sums, n, extra_rows, extra, SPLIT_OMEGAS)
        )
        assert np.array_equal(got, want)
        # Columns past the exact-side cap draw from CLT rows alone.
        beyond = SPLIT_OMEGAS >= X_WIDTH
        assert (got[:, beyond] > 0).any() == bool(len(extra_rows))
