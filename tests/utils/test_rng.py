"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import as_rng, spawn_seed_sequences


class TestAsRng:
    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_int_deterministic(self):
        a = as_rng(42).random(5)
        b = as_rng(42).random(5)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(as_rng(1).random(5), as_rng(2).random(5))

    def test_generator_passthrough(self):
        gen = np.random.default_rng(7)
        assert as_rng(gen) is gen

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(5)
        a = as_rng(seq)
        assert isinstance(a, np.random.Generator)

    def test_tuple_seed_accepted(self):
        a = as_rng((1, 2)).random(3)
        b = as_rng((1, 2)).random(3)
        assert np.array_equal(a, b)


class TestSpawnSeedSequences:
    def test_count(self):
        assert len(spawn_seed_sequences(0, 5)) == 5

    def test_zero_children(self):
        assert spawn_seed_sequences(0, 0) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_seed_sequences(0, -1)

    def test_children_independent(self):
        draws = [_draws(child, 4) for child in spawn_seed_sequences(0, 3)]
        assert not np.array_equal(draws[0], draws[1])
        assert not np.array_equal(draws[1], draws[2])

    def test_deterministic_from_int_seed(self):
        a = [_draws(child, 3) for child in spawn_seed_sequences(9, 3)]
        b = [_draws(child, 3) for child in spawn_seed_sequences(9, 3)]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_prefix_stability(self):
        """Child i is identical regardless of how many siblings follow."""
        a = _draws(spawn_seed_sequences(3, 2)[0], 4)
        b = _draws(spawn_seed_sequences(3, 6)[0], 4)
        assert np.array_equal(a, b)

    def test_generator_seed_consumes_stream(self):
        kids1 = spawn_seed_sequences(np.random.default_rng(11), 2)
        kids2 = spawn_seed_sequences(np.random.default_rng(11), 2)
        assert np.array_equal(_draws(kids1[0], 3), _draws(kids2[0], 3))


def _draws(child, size):
    return np.random.default_rng(child).random(size)
