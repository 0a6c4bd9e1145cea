"""End-to-end server tests: sockets, pipelining, concurrency, errors.

Runs the asyncio server in a background thread and drives it with real
TCP clients, asserting every served answer equals the sequential
oracle — the socket-level half of the seed-equivalence suite.
"""

import asyncio
import json
import socket
import threading

import pytest

from repro.graphs.generators import erdos_renyi
from repro.core.search import obfuscate
from repro.serve import ObfuscationServer, QueryEngine, ServeClient, ServeError
from repro.uncertain import k_nearest_neighbors, reliability

WORLDS = 32
SEED = 1234


@pytest.fixture(scope="module")
def release():
    graph = erdos_renyi(40, 0.15, seed=2)
    result = obfuscate(graph, k=3, eps=0.25, seed=9, attempts=2, delta=0.05)
    assert result.success
    return result.uncertain


@pytest.fixture(scope="module")
def server(release):
    """Server on a free port, running on a dedicated event-loop thread."""
    engine = QueryEngine(release, worlds=WORLDS, seed=SEED)
    srv = ObfuscationServer(engine, port=0, window_ms=1.0)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def run():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(srv.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(10)
    yield srv
    asyncio.run_coroutine_threadsafe(srv.stop(), loop).result(10)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(10)


class TestSingleClient:
    def test_reliability_pinned(self, release, server):
        with ServeClient(server.host, server.port) as client:
            value = client.request("reliability", source=0, target=7)["value"]
        assert value == reliability(release, 0, 7, worlds=WORLDS, seed=SEED)

    def test_knn_pinned(self, release, server):
        with ServeClient(server.host, server.port) as client:
            got = client.request("knn", source=2, k=4)["neighbors"]
        oracle = k_nearest_neighbors(release, 2, 4, worlds=WORLDS, seed=SEED)
        assert got == [[v, s] for v, s in oracle]

    def test_pipelined_batch(self, release, server):
        requests = [
            {"op": "reliability", "source": 1, "target": t} for t in range(5)
        ] + [{"op": "degree", "source": 1}]
        with ServeClient(server.host, server.port) as client:
            results = client.request_many(requests)
        for t in range(5):
            expected = (
                1.0
                if t == 1
                else reliability(release, 1, t, worlds=WORLDS, seed=SEED)
            )
            assert results[t]["value"] == expected
        assert results[5]["value"] == float(release.expected_degrees()[1])

    def test_error_response(self, server, release):
        with ServeClient(server.host, server.port) as client:
            with pytest.raises(ServeError, match="out of range"):
                client.request(
                    "reliability", source=0, target=release.num_vertices
                )
            # connection still usable after a query error
            assert client.request("degree", source=0)["value"] >= 0

    def test_malformed_line_keeps_connection(self, server):
        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as sock:
            fh = sock.makefile("rb")
            for rid, bad in enumerate(
                [b"this is not json\n", b"[" * 2000 + b"\n"], start=1
            ):
                sock.sendall(bad)
                response = json.loads(fh.readline())
                assert response["ok"] is False
                assert "malformed JSON request" in response["error"]
                sock.sendall(
                    b'{"id": %d, "op": "degree", "source": 0}\n' % rid
                )
                response = json.loads(fh.readline())
                assert response["ok"] is True and response["id"] == rid


class TestConcurrentClients:
    def test_many_threads_all_pinned(self, release, server):
        """16 threads × 8 queries: every answer equals the oracle."""
        pairs = [(s, t) for s in range(4) for t in range(20, 28)]
        oracle = {
            (s, t): reliability(release, s, t, worlds=WORLDS, seed=SEED)
            for s, t in set(pairs)
        }
        errors: list = []

        def worker(worker_id: int):
            try:
                with ServeClient(server.host, server.port) as client:
                    for s, t in pairs[worker_id::16] or pairs[:4]:
                        got = client.request(
                            "reliability", source=s, target=t
                        )["value"]
                        assert got == oracle[(s, t)], (s, t, got)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(16)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not errors

    def test_mixed_ops_concurrent(self, release, server):
        results: dict = {}
        errors: list = []

        def worker(op: str):
            try:
                with ServeClient(server.host, server.port) as client:
                    if op == "knn":
                        results[op] = client.request("knn", source=5, k=3)
                    elif op == "khop":
                        results[op] = client.request(
                            "khop", source=5, hops=2
                        )
                    else:
                        results[op] = client.request(
                            "distance", source=5, target=11
                        )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(op,))
            for op in ("knn", "khop", "distance")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not errors
        oracle_knn = k_nearest_neighbors(release, 5, 3, worlds=WORLDS, seed=SEED)
        assert results["knn"]["neighbors"] == [[v, s] for v, s in oracle_knn]
        assert set(results["distance"]) == {"distribution", "median", "majority"}
