"""Engine tests: oracle pinning through the serving path, caches, errors.

The batched kernels are already pinned to the sequential oracle in
``tests/uncertain/test_batch_queries.py``; here the *full serving
stack* below the socket — resolve → coalesce → cache → kernel → wire
payload — must produce the same numbers the oracle would.
"""

import math

import pytest

from repro.graphs.generators import erdos_renyi
from repro.core.search import obfuscate
from repro.serve.engine import QueryEngine
from repro.serve.protocol import Query
from repro.uncertain import (
    distance_distribution,
    k_hop_reachable_size,
    k_nearest_neighbors,
    majority_distance,
    median_distance,
    reliability,
)

WORLDS = 48
SEED = 4242


@pytest.fixture(scope="module")
def release():
    graph = erdos_renyi(50, 0.12, seed=3)
    result = obfuscate(graph, k=3, eps=0.25, seed=5, attempts=2, delta=0.05)
    assert result.success
    return result.uncertain


@pytest.fixture()
def engine(release):
    return QueryEngine(release, worlds=WORLDS, seed=SEED)


def _value(payload):
    assert "error" not in payload, payload
    return payload["result"]


class TestOraclePinning:
    """Every served answer == the sequential queries.py oracle."""

    def test_degree(self, release, engine):
        vector = release.expected_degrees()
        for v in (0, 7, 49):
            served = _value(engine.execute_one(Query(op="degree", source=v)))
            # bit-equal to the vectorised aggregate; a plain pair loop
            # sums in a different order, so only ~1e-12 close.
            assert served["value"] == float(vector[v])
            assert served["value"] == pytest.approx(
                sum(p for a, b, p in release.candidate_pairs() if v in (a, b)),
                abs=1e-9,
            )

    def test_reliability(self, release, engine):
        for s, t in [(0, 1), (5, 40), (12, 13)]:
            served = _value(
                engine.execute_one(
                    Query(op="reliability", source=s, target=t)
                )
            )
            oracle = reliability(release, s, t, worlds=WORLDS, seed=SEED)
            assert served["value"] == oracle

    def test_reliability_hop_constrained(self, release, engine):
        served = _value(
            engine.execute_one(
                Query(op="reliability", source=0, target=20, max_hops=2)
            )
        )
        oracle = reliability(
            release, 0, 20, worlds=WORLDS, max_hops=2, seed=SEED
        )
        assert served["value"] == oracle

    def test_khop(self, release, engine):
        for hops in (1, 3):
            served = _value(
                engine.execute_one(Query(op="khop", source=4, hops=hops))
            )
            oracle = k_hop_reachable_size(
                release, 4, hops, worlds=WORLDS, seed=SEED
            )
            assert served["value"] == oracle

    def test_distance(self, release, engine):
        s, t = 2, 33
        served = _value(
            engine.execute_one(Query(op="distance", source=s, target=t))
        )
        oracle = distance_distribution(release, s, t, worlds=WORLDS, seed=SEED)
        expected_wire = {
            ("inf" if math.isinf(d) else str(int(d))): p
            for d, p in oracle.items()
        }
        assert served["distribution"] == expected_wire
        med = median_distance(release, s, t, worlds=WORLDS, seed=SEED)
        maj = majority_distance(release, s, t, worlds=WORLDS, seed=SEED)
        assert served["median"] == ("inf" if math.isinf(med) else med)
        assert served["majority"] == ("inf" if math.isinf(maj) else maj)

    def test_knn(self, release, engine):
        served = _value(
            engine.execute_one(Query(op="knn", source=9, k=5))
        )
        oracle = k_nearest_neighbors(release, 9, 5, worlds=WORLDS, seed=SEED)
        assert served["neighbors"] == [[v, s] for v, s in oracle]

    def test_per_query_worlds_seed_override(self, release, engine):
        served = _value(
            engine.execute_one(
                Query(op="reliability", source=1, target=30, worlds=16, seed=77)
            )
        )
        assert served["value"] == reliability(
            release, 1, 30, worlds=16, seed=77
        )


class TestCoalescing:
    def test_window_answers_equal_singletons(self, release, engine):
        window = [
            Query(op="reliability", source=3, target=10),
            Query(op="knn", source=3, k=4),
            Query(op="distance", source=3, target=44),
            Query(op="khop", source=8, hops=2),
            Query(op="degree", source=8),
            Query(op="reliability", source=3, target=10),  # duplicate
        ]
        coalesced = engine.execute(window)
        fresh = QueryEngine(release, worlds=WORLDS, seed=SEED)
        singles = [fresh.execute_one(q) for q in window]
        assert coalesced == singles

    def test_shared_source_costs_one_bfs(self, release):
        from repro.obs.metrics import REGISTRY

        engine = QueryEngine(release, worlds=WORLDS, seed=SEED)
        before = REGISTRY.counter("serve.bfs.passes").value
        engine.execute(
            [
                Query(op="reliability", source=6, target=t)
                for t in (1, 2, 3, 4, 5)
            ]
            + [Query(op="knn", source=6, k=3)]
        )
        assert REGISTRY.counter("serve.bfs.passes").value == before + 1

    def test_answer_cache_hit(self, release, engine):
        from repro.obs.metrics import REGISTRY

        q = Query(op="reliability", source=11, target=40)
        first = engine.execute_one(q)
        before = REGISTRY.counter("serve.cache.answer_hits").value
        second = engine.execute_one(q)
        assert second == first
        assert REGISTRY.counter("serve.cache.answer_hits").value == before + 1

    def test_defaulted_and_explicit_keys_coalesce(self, release, engine):
        explicit = Query(
            op="reliability", source=2, target=9, worlds=WORLDS, seed=SEED
        )
        defaulted = Query(op="reliability", source=2, target=9)
        assert engine.execute_one(explicit) == engine.execute_one(defaulted)
        # and the second came from the answer cache (same resolved key)
        assert engine.cache_stats()["answers"] == 1


class TestErrors:
    def test_out_of_range_vertex(self, release, engine):
        payload = engine.execute_one(
            Query(op="reliability", source=0, target=release.num_vertices)
        )
        assert "out of range" in payload["error"]

    def test_bad_k(self, release, engine):
        payload = engine.execute_one(
            Query(op="knn", source=0, k=release.num_vertices)
        )
        assert "error" in payload

    def test_errors_do_not_poison_window(self, release, engine):
        window = [
            Query(op="reliability", source=0, target=release.num_vertices),
            Query(op="reliability", source=0, target=1),
        ]
        payloads = engine.execute(window)
        assert "error" in payloads[0]
        assert payloads[1]["result"]["value"] == reliability(
            release, 0, 1, worlds=WORLDS, seed=SEED
        )

    def test_rejects_zero_worlds(self, release):
        with pytest.raises(ValueError):
            QueryEngine(release, worlds=0)


class TestCacheBounds:
    def test_dist_rows_evict(self, release):
        engine = QueryEngine(
            release, worlds=8, seed=1, max_dist_rows=4, max_answers=8
        )
        for s in range(10):
            engine.execute_one(Query(op="khop", source=s, hops=2))
        stats = engine.cache_stats()
        assert stats["dist_rows"] <= 4
        assert stats["answers"] <= 8

    def test_eviction_preserves_answers(self, release):
        tiny = QueryEngine(
            release, worlds=8, seed=1, max_dist_rows=1, max_answers=1
        )
        big = QueryEngine(release, worlds=8, seed=1)
        qs = [Query(op="khop", source=s, hops=1) for s in (0, 1, 0, 1)]
        assert [tiny.execute_one(q) for q in qs] == [
            big.execute_one(q) for q in qs
        ]
