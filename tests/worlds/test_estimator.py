"""End-to-end equivalence: the batched estimator vs the sequential oracle.

Same seed ⇒ same worlds ⇒ Table-4 values within 1e-9, for every
distance backend and any chunking.  The one-world-at-a-time reference
loop lives in ``tests/oracles/worlds.py``.
"""

import gc

import numpy as np
import pytest

from repro.graphs.graph import Graph
from repro.stats.degree import num_edges
from repro.stats.registry import PAPER_STATISTIC_NAMES, paper_statistics
from repro.worlds import (
    BATCHED_STATISTIC_NAMES,
    BatchStatisticsEngine,
    WorldBatch,
    WorldStatisticsEstimator,
)

from tests.oracles.worlds import world_statistics
from tests.worlds.conftest import random_uncertain


def _run_pair(uncertain, *, distance_backend, worlds, seed, chunk_size=32):
    stats = paper_statistics(distance_backend=distance_backend, seed=seed)
    sequential = world_statistics(uncertain, stats, worlds=worlds, seed=seed)
    batched = WorldStatisticsEstimator(
        uncertain, stats, chunk_size=chunk_size
    ).run(worlds=worlds, seed=seed)
    return sequential, batched


class TestTable4Equivalence:
    @pytest.mark.parametrize("distance_backend", ["anf", "exact", "sampled"])
    def test_all_statistics_match(self, denser_uncertain, distance_backend):
        sequential, batched = _run_pair(
            denser_uncertain, distance_backend=distance_backend, worlds=10, seed=4
        )
        assert set(batched) == set(PAPER_STATISTIC_NAMES)
        for name in PAPER_STATISTIC_NAMES:
            np.testing.assert_allclose(
                batched[name].values,
                sequential[name].values,
                atol=1e-9,
                rtol=0,
                err_msg=f"{distance_backend}/{name}",
            )

    def test_property_random_graphs(self):
        """Property sweep: shapes × seeds, per-world values within 1e-9."""
        rng = np.random.default_rng(17)
        for trial in range(5):
            n = int(rng.integers(5, 35))
            pairs = int(rng.integers(4, max(5, n * 2)))
            ug = random_uncertain(n, pairs, seed=100 + trial)
            seed = int(rng.integers(0, 2**31))
            sequential, batched = _run_pair(
                ug, distance_backend="anf", worlds=6, seed=seed, chunk_size=4
            )
            for name in PAPER_STATISTIC_NAMES:
                np.testing.assert_allclose(
                    batched[name].values,
                    sequential[name].values,
                    atol=1e-9,
                    rtol=0,
                    err_msg=f"trial {trial}: {name}",
                )

    @pytest.mark.parametrize("chunk_size", [1, 3, 100])
    def test_chunking_does_not_change_results(self, denser_uncertain, chunk_size):
        _, reference = _run_pair(
            denser_uncertain, distance_backend="anf", worlds=7, seed=0
        )
        _, chunked = _run_pair(
            denser_uncertain,
            distance_backend="anf",
            worlds=7,
            seed=0,
            chunk_size=chunk_size,
        )
        for name in PAPER_STATISTIC_NAMES:
            np.testing.assert_array_equal(
                chunked[name].values, reference[name].values
            )


class TestBatchedEstimator:
    def test_default_statistics_are_paper_family(self, denser_uncertain):
        est = WorldStatisticsEstimator(denser_uncertain)
        out = est.run(worlds=3, seed=0)
        assert set(out) == set(PAPER_STATISTIC_NAMES)

    def test_unknown_statistic_falls_back_to_callable(self, denser_uncertain):
        est = WorldStatisticsEstimator(
            denser_uncertain, {"S_NE": num_edges, "halved": lambda g: g.num_edges / 2}
        )
        out = est.run(worlds=5, seed=1)
        np.testing.assert_allclose(out["halved"].values, out["S_NE"].values / 2)

    def test_callable_sees_one_live_world(self):
        """A plain callable runs on one materialised world at a time: no
        world of the chunk (or of the previous chunk) is kept alive."""
        ug = random_uncertain(120, 400, seed=3)
        # Held, so no world can reuse the id of a graph alive before the run.
        held = [o for o in gc.get_objects() if isinstance(o, Graph)]
        before = {id(o) for o in held}
        live = []

        def count_worlds(graph):
            live.append(
                sum(
                    1
                    for o in gc.get_objects()
                    if isinstance(o, Graph) and id(o) not in before
                )
            )
            return graph.num_edges

        out = WorldStatisticsEstimator(ug, {"S_NE": count_worlds}).run(
            worlds=40, seed=0
        )
        assert len(live) == 40
        assert max(live) == 1
        sequential = world_statistics(ug, {"S_NE": num_edges}, worlds=40, seed=0)
        np.testing.assert_array_equal(out["S_NE"].values, sequential["S_NE"].values)

    def test_backend_keyword_rejected(self, denser_uncertain):
        """The estimator has one engine; the old selector is not accepted."""
        with pytest.raises(TypeError):
            WorldStatisticsEstimator(
                denser_uncertain, {"S_NE": num_edges}, backend="batched"
            )

    def test_zero_worlds_rejected(self, denser_uncertain):
        with pytest.raises(ValueError):
            WorldStatisticsEstimator(denser_uncertain).run(worlds=0)

    def test_bad_chunk_size_rejected(self, denser_uncertain):
        with pytest.raises(ValueError):
            WorldStatisticsEstimator(denser_uncertain, chunk_size=0)

    def test_bad_backend_rejected(self, denser_uncertain):
        """A backend reaches the estimator only through a family, and the
        family refuses an unknown one when it is built."""
        with pytest.raises(ValueError, match="unknown distance backend"):
            WorldStatisticsEstimator(
                denser_uncertain, paper_statistics(distance_backend="bogus")
            )

    def test_batched_names_cover_paper_family(self):
        assert BATCHED_STATISTIC_NAMES == frozenset(PAPER_STATISTIC_NAMES)

    def test_engine_options_removed(self, denser_uncertain):
        """The family is the only configuration: no engine keyword can
        make the kernels diverge from the family's callables."""
        family = paper_statistics(distance_backend="anf", seed=0)
        for option in (
            "distance_backend", "sample_size", "distance_seed", "anf_b", "powerlaw_d_min"
        ):
            with pytest.raises(TypeError):
                WorldStatisticsEstimator(denser_uncertain, family, **{option: 1})
            with pytest.raises(TypeError):
                BatchStatisticsEngine(family, **{option: 1})

    @pytest.mark.parametrize("backend", ["exact", "sampled"])
    def test_distance_callables_fresh_per_world(self, denser_uncertain, backend):
        """One-world chunks free each world before the next is built, so
        a new world may be allocated where the last one lived; the
        family's histogram cache must not hand it the old histogram."""
        family = paper_statistics(distance_backend=backend, sample_size=8, seed=3)
        mapping = {"S_APD": family["S_APD"]}
        sequential = world_statistics(
            denser_uncertain,
            paper_statistics(distance_backend=backend, sample_size=8, seed=3),
            worlds=8,
            seed=2,
        )["S_APD"].values
        assert len(set(sequential)) > 1
        estimator = WorldStatisticsEstimator(denser_uncertain, mapping, chunk_size=1)
        for _ in range(2):  # a second run reuses the mapping and its cache
            values = estimator.run(worlds=8, seed=2)["S_APD"].values
            np.testing.assert_allclose(values, sequential, atol=1e-12, rtol=0)
        batch = WorldBatch.sample(denser_uncertain, 8, seed=2)
        for engine in (BatchStatisticsEngine(mapping), BatchStatisticsEngine(family)):
            values = engine.evaluate(batch, ["S_APD"], chunk_size=1)["S_APD"]
            np.testing.assert_allclose(values, sequential, atol=1e-12, rtol=0)

    def test_family_config_adopted(self, denser_uncertain):
        """A sampled-backend family runs its own sample_size, no options needed."""
        family = paper_statistics(distance_backend="sampled", sample_size=16, seed=3)
        sequential = world_statistics(denser_uncertain, family, worlds=5, seed=2)
        batched = WorldStatisticsEstimator(denser_uncertain, family).run(
            worlds=5, seed=2
        )
        for name in PAPER_STATISTIC_NAMES:
            np.testing.assert_allclose(
                batched[name].values, sequential[name].values, atol=1e-9, rtol=0,
                err_msg=name,
            )

    def test_plain_mapping_honours_custom_callable_under_paper_name(
        self, denser_uncertain
    ):
        """No kernel substitution for non-family mappings (e.g. transitivity
        bound to the S_CC name must run as given)."""
        from repro.graphs.triangles import transitivity

        mapping = {"S_CC": transitivity}
        sequential = world_statistics(denser_uncertain, mapping, worlds=5, seed=1)
        batched = WorldStatisticsEstimator(denser_uncertain, mapping).run(
            worlds=5, seed=1
        )
        np.testing.assert_allclose(
            batched["S_CC"].values, sequential["S_CC"].values, atol=1e-12, rtol=0
        )


class TestAutoChunkBound:
    """Auto chunk_size must track the statistics actually evaluated."""

    @staticmethod
    def _eval_chunks(engine, batch, names):
        from repro.obs.metrics import REGISTRY, reset_metrics

        reset_metrics()
        engine.evaluate(batch, names)
        return REGISTRY.get("worlds.eval.chunks")

    @staticmethod
    def _large_n_batch(worlds=4):
        # n large enough that the old ANF register bound (2MB / (n<<6))
        # forced 1-world slices; m stays tiny so the new keep-matrix
        # bound does not chunk at all.
        from repro.uncertain import UncertainGraph
        from repro.worlds import WorldBatch

        n = 20_000
        us = np.arange(20, dtype=np.int64)
        vs = us + 1
        ug = UncertainGraph.from_arrays(
            n, us, vs, np.full(20, 0.5, dtype=np.float64)
        )
        return WorldBatch.sample(ug, worlds, seed=0)

    def test_degree_only_does_not_pay_anf_bound(self):
        engine = BatchStatisticsEngine()
        batch = self._large_n_batch()
        assert self._eval_chunks(engine, batch, ["S_NE", "S_AD"]) == 1

    def test_sampled_backend_does_not_pay_anf_bound(self):
        engine = BatchStatisticsEngine(
            paper_statistics(distance_backend="sampled", sample_size=4)
        )
        batch = self._large_n_batch()
        assert self._eval_chunks(engine, batch, ["S_APD"]) == 1

    def test_anf_distance_still_pays_register_bound(self):
        engine = BatchStatisticsEngine()
        batch = self._large_n_batch()
        assert self._eval_chunks(engine, batch, ["S_APD"]) == batch.num_worlds

    def test_structural_names_span_the_anf_chunks(self):
        """The ANF rule gives one world per chunk here; the degree family
        and S_CC are still evaluated in one chunk of every world."""
        engine = BatchStatisticsEngine()
        batch = self._large_n_batch(worlds=4)
        names = list(engine.statistics)
        plan = [
            (group, [(c.lo, c.hi) for c in chunks])
            for group, chunks in engine.plan(batch, names)
        ]
        assert plan == [
            (["S_NE", "S_AD", "S_MD", "S_DV", "S_PL", "S_CC"], [(0, 4)]),
            (["S_APD", "S_DiamLB", "S_EDiam", "S_CL"], [(w, w + 1) for w in range(4)]),
        ]
        assert self._eval_chunks(engine, batch, names) == 1 + batch.num_worlds

    def test_explicit_chunk_size_applies_to_every_group(self):
        engine = BatchStatisticsEngine()
        batch = self._large_n_batch(worlds=5)
        names = list(engine.statistics)
        plans = engine.plan(batch, names, chunk_size=2)
        assert [chunks.chunk_size for _, chunks in plans] == [2, 2]
        auto = engine.evaluate(batch, names)
        forced = engine.evaluate(batch, names, chunk_size=2)
        for name in names:
            np.testing.assert_array_equal(auto[name], forced[name])

    def test_values_identical_across_the_bound_change(self):
        engine = BatchStatisticsEngine(
            paper_statistics(distance_backend="sampled", sample_size=4)
        )
        batch = self._large_n_batch(worlds=3)
        auto = engine.evaluate(batch, ["S_NE", "S_APD"])
        forced = engine.evaluate(batch, ["S_NE", "S_APD"], chunk_size=1)
        for name in auto:
            np.testing.assert_array_equal(auto[name], forced[name])
