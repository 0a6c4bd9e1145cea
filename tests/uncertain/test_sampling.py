"""Tests for possible-world sampling (§6.1)."""

import numpy as np
import pytest

from repro.uncertain.graph import UncertainGraph
from repro.uncertain.sampling import WorldSampler, sample_world


class TestWorldSampler:
    def test_certain_pairs_deterministic(self):
        ug = UncertainGraph.from_pairs(3, [(0, 1, 1.0)])
        sampler = WorldSampler(ug)
        for seed in range(5):
            assert sampler.sample(seed=seed).has_edge(0, 1)

    def test_zero_pairs_never_appear(self):
        ug = UncertainGraph.from_arrays(3, [0], [1], [0.0], keep_zero=True)
        sampler = WorldSampler(ug)
        for seed in range(5):
            assert not sampler.sample(seed=seed).has_edge(0, 1)

    def test_empty_graph(self):
        world = WorldSampler(UncertainGraph(4)).sample(seed=0)
        assert world.num_vertices == 4
        assert world.num_edges == 0

    def test_edge_frequency_matches_probability(self):
        ug = UncertainGraph.from_pairs(2, [(0, 1, 0.3)])
        sampler = WorldSampler(ug)
        rng = np.random.default_rng(0)
        hits = sum(sampler.sample(seed=rng).has_edge(0, 1) for _ in range(2000))
        assert hits / 2000 == pytest.approx(0.3, abs=0.04)

    def test_expected_edges_matches_formula(self, fig1b):
        sampler = WorldSampler(fig1b)
        rng = np.random.default_rng(1)
        mean_edges = np.mean(
            [sampler.sample(seed=rng).num_edges for _ in range(3000)]
        )
        assert mean_edges == pytest.approx(fig1b.expected_num_edges(), abs=0.1)

    def test_deterministic_with_seed(self, fig1b):
        a = WorldSampler(fig1b).sample(seed=42)
        b = WorldSampler(fig1b).sample(seed=42)
        assert a == b

    def test_sample_many_yields_count(self, fig1b):
        worlds = list(WorldSampler(fig1b).sample_many(7, seed=0))
        assert len(worlds) == 7

    def test_sample_many_varies(self, fig1b):
        worlds = list(WorldSampler(fig1b).sample_many(20, seed=0))
        assert len({tuple(sorted(w.edges())) for w in worlds}) > 1

    def test_num_candidate_pairs(self, fig1b):
        assert WorldSampler(fig1b).num_candidate_pairs == 5


class TestConvenience:
    def test_sample_world(self, fig1b):
        w = sample_world(fig1b, seed=3)
        assert w.num_vertices == 4
