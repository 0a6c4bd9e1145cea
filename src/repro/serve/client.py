"""Clients for the obfuscation server.

:class:`ServeClient` is the blocking convenience client (tests, shell
experiments): one socket, one request/response at a time, plus a
pipelined :meth:`request_many` that ships a whole batch of requests in
one write so they land in a single coalescing window on the server.

Resilience: the client owns transport-level retry.  A dropped
connection, a read timeout, or an ``overloaded`` shed response is
retried up to ``retries`` times with seeded jittered exponential
backoff (:class:`repro.resilience.retry.RetryPolicy`); every served op
is a pure read over an immutable release, so re-sending a batch is
always safe.  Application errors (unknown op, bad vertex id) are *not*
retried — they fail the same way every time.

The open-loop workload generator (``benchmarks/workload.py``) does not
use this client: it speaks the line protocol over its own asyncio
streams to keep many requests in flight at target QPS.
"""

from __future__ import annotations

import json
import socket
import time

from repro.resilience.retry import RetryPolicy
from repro.serve.protocol import decode_response

__all__ = [
    "ServeClient",
    "ServeError",
    "ServeOverloadedError",
]


class ServeError(RuntimeError):
    """Server answered a request with ``ok: false``."""


class ServeOverloadedError(ServeError):
    """Server shed the request (bounded queue full or deadline passed).

    ``retry_after_ms`` carries the server's backoff hint, if it sent one.
    """

    def __init__(self, message: str, retry_after_ms: int | None = None):
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


def _encode_request(request_id, op: str, params: dict) -> bytes:
    obj = {"id": request_id, "op": op, **params}
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode()


class ServeClient:
    """Blocking line-JSON client with transparent reconnect-and-retry.

    Parameters
    ----------
    host, port:
        Server address.
    connect_timeout:
        Budget for establishing the TCP connection.
    timeout:
        Per-read socket timeout; a server that stops answering surfaces
        as ``TimeoutError`` (and is retried) instead of hanging forever.
    retries:
        Transport-level retries per batch (connection drop, read
        timeout, ``overloaded`` shed).  ``0`` disables retry.
    retry_policy:
        Backoff schedule; defaults to the shared
        :class:`~repro.resilience.retry.RetryPolicy` defaults.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        connect_timeout: float = 5.0,
        timeout: float = 30.0,
        retries: int = 2,
        retry_policy: RetryPolicy | None = None,
    ):
        self._host = host
        self._port = port
        self._connect_timeout = connect_timeout
        self._timeout = timeout
        self._retries = max(0, retries)
        self._retry_policy = retry_policy or RetryPolicy()
        self._sock: socket.socket | None = None
        self._file = None
        self._next_id = 0
        self._connect()

    def _connect(self) -> None:
        self._close_socket()
        self._sock = socket.create_connection(
            (self._host, self._port), timeout=self._connect_timeout
        )
        self._sock.settimeout(self._timeout)
        self._file = self._sock.makefile("rb")

    def _close_socket(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self) -> None:
        self._close_socket()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def request(self, op: str, **params) -> dict:
        """One request, one response; raises :class:`ServeError` on errors."""
        return self.request_many([{"op": op, **params}])[0]

    def health(self) -> dict:
        """Server health/readiness (answered even when the queue is full)."""
        return self.request("health")

    def request_many(self, requests: list[dict]) -> list[dict]:
        """Pipeline a batch of ``{"op": ..., ...}`` requests.

        All requests go out in one write; responses (matched by id, so
        server-side reordering is fine) come back in request order.
        Transport failures and ``overloaded`` sheds are retried whole-
        batch (reads are idempotent); any other error raises
        :class:`ServeError`.
        """
        failures = 0
        while True:
            try:
                return self._request_many_once(requests)
            except ServeOverloadedError as exc:
                failures += 1
                if failures > self._retries:
                    raise
                backoff = self._retry_policy.backoff_s("serve", failures)
                if exc.retry_after_ms is not None:
                    backoff = max(backoff, exc.retry_after_ms / 1000.0)
                time.sleep(backoff)
            except (ConnectionError, TimeoutError, OSError, ValueError):
                # Dead/torn/hung connection (a mid-line abort surfaces as
                # a ValueError from decode_response on the torn tail).
                failures += 1
                if failures > self._retries:
                    raise
                time.sleep(self._retry_policy.backoff_s("serve", failures))
                self._connect()

    def _request_many_once(self, requests: list[dict]) -> list[dict]:
        ids = []
        out = bytearray()
        for req in requests:
            request_id = self._next_id
            self._next_id += 1
            params = {k: v for k, v in req.items() if k != "op"}
            out += _encode_request(request_id, req["op"], params)
            ids.append(request_id)
        assert self._sock is not None and self._file is not None
        self._sock.sendall(bytes(out))
        by_id: dict[object, dict] = {}
        for _ in ids:
            line = self._file.readline()
            if not line:
                raise ConnectionError("server closed connection mid-batch")
            if not line.endswith(b"\n"):
                raise ConnectionError("connection dropped mid-line")
            response_id, payload = decode_response(line)
            by_id[response_id] = payload
        results = []
        for request_id in ids:
            payload = by_id.get(request_id)
            if payload is None:
                raise ConnectionError(f"no response for request {request_id}")
            if "error" in payload:
                if payload["error"] == "overloaded":
                    raise ServeOverloadedError(
                        payload["error"], payload.get("retry_after_ms")
                    )
                raise ServeError(payload["error"])
            results.append(payload["result"])
        return results
