"""Line-JSON wire protocol for the obfuscation server.

One request per line, one response per line, UTF-8 JSON::

    → {"id": 7, "op": "reliability", "source": 3, "target": 42}
    ← {"id": 7, "ok": true, "result": {"value": 0.625}}

    → {"id": 8, "op": "knn", "source": 3, "k": 5}
    ← {"id": 8, "ok": true,
       "result": {"neighbors": [[17, 0.9375], [4, 0.75]]}}

    → {"id": 9, "op": "nope"}
    ← {"id": 9, "ok": false, "error": "unknown op 'nope' ..."}

``id`` is an opaque client token echoed back verbatim (responses to
pipelined requests are matched by it).  Optional ``worlds`` and
``seed`` fields override the engine's defaults per query — two queries
with the same ``(worlds, seed)`` share sampled worlds, which is what
the server coalesces on.

Infinite distances (disconnected pairs) cross the wire as the string
``"inf"`` so every response line is strict JSON.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

__all__ = [
    "OPS",
    "Query",
    "decode_response",
    "encode_response",
    "parse_request",
]

#: op name → required integer fields beyond the op itself.
OPS: dict[str, tuple[str, ...]] = {
    "degree": ("source",),
    "reliability": ("source", "target"),
    "khop": ("source", "hops"),
    "distance": ("source", "target"),
    "knn": ("source", "k"),
    "health": (),
}

#: optional integer fields accepted per op.
_OPTIONAL: dict[str, tuple[str, ...]] = {
    "degree": (),
    "reliability": ("max_hops",),
    "khop": (),
    "distance": (),
    "knn": (),
    "health": (),
}


@dataclass(frozen=True)
class Query:
    """A validated query; hashable so it doubles as an answer-cache key.

    ``worlds``/``seed`` of ``None`` mean "engine defaults" — the engine
    resolves them before grouping, so equal effective sampling keys
    coalesce whether they were spelled out or defaulted.  ``source``
    defaults to 0 for ops that take no vertex (``health``).
    """

    op: str
    source: int = 0
    target: int | None = None
    k: int | None = None
    hops: int | None = None
    max_hops: int | None = None
    worlds: int | None = None
    seed: int | None = None


def _require_int(obj: dict, field: str, *, minimum: int = 0) -> int:
    value = obj.get(field)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"field {field!r} must be an integer")
    if value < minimum:
        raise ValueError(f"field {field!r} must be >= {minimum}, got {value}")
    return value


def parse_request(line: str | bytes) -> tuple[object, Query, int | None]:
    """Parse one request line into ``(id, Query, timeout_ms)``.

    ``timeout_ms`` is the request's optional per-request deadline: the
    server sheds the query (instead of answering late) once that many
    milliseconds have passed since the request was read.

    Raises ``ValueError`` on malformed JSON (nesting too deep to decode
    included), unknown ops, or missing / mistyped fields.  The caller
    still owns range-checking vertex ids against the loaded release (the
    protocol layer does not know ``n``).
    """
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON request: {exc}") from None
    except RecursionError:
        raise ValueError(
            "malformed JSON request: nesting too deep to decode"
        ) from None
    if not isinstance(obj, dict):
        raise ValueError("request must be a JSON object")
    op = obj.get("op")
    if not isinstance(op, str) or op not in OPS:
        raise ValueError(
            f"unknown op {op!r}; expected one of {sorted(OPS)}"
        )
    fields: dict[str, int] = {}
    for field in OPS[op]:
        fields[field] = _require_int(obj, field)
    for field in _OPTIONAL[op]:
        if obj.get(field) is not None:
            fields[field] = _require_int(obj, field)
    for field in ("worlds", "seed"):
        if obj.get(field) is not None:
            fields[field] = _require_int(
                obj, field, minimum=1 if field == "worlds" else 0
            )
    if op == "knn" and fields["k"] < 1:
        raise ValueError(f"field 'k' must be >= 1, got {fields['k']}")
    timeout_ms = None
    if obj.get("timeout_ms") is not None:
        timeout_ms = _require_int(obj, "timeout_ms", minimum=1)
    return obj.get("id"), Query(op=op, **fields), timeout_ms


def _wire_number(value: float):
    """JSON-safe scalar: ``inf`` becomes the string ``"inf"``."""
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


def wire_payload(query: Query, answer) -> dict:
    """Shape an engine answer for the wire (op-specific result object)."""
    if query.op == "distance":
        distribution, median, majority = answer
        return {
            "distribution": {
                str(_wire_number(d)): p for d, p in sorted(
                    distribution.items(),
                    key=lambda kv: (math.isinf(kv[0]), kv[0]),
                )
            },
            "median": _wire_number(median),
            "majority": _wire_number(majority),
        }
    if query.op == "knn":
        return {"neighbors": [[v, s] for v, s in answer]}
    return {"value": answer}


def encode_response(request_id, payload: dict) -> bytes:
    """Encode one response line; ``payload`` comes from the engine.

    Error payloads may carry ``retry_after_ms`` — the load-shedding
    hint clients use to back off before retrying an overloaded server.
    """
    if "error" in payload:
        obj = {"id": request_id, "ok": False, "error": payload["error"]}
        if payload.get("retry_after_ms") is not None:
            obj["retry_after_ms"] = int(payload["retry_after_ms"])
    else:
        obj = {"id": request_id, "ok": True, "result": payload["result"]}
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode()


def decode_response(line: str | bytes) -> tuple[object, dict]:
    """Parse one response line into ``(id, {"result": ...} | {"error": ...})``."""
    obj = json.loads(line)
    if not isinstance(obj, dict) or "ok" not in obj:
        raise ValueError(f"malformed response line: {line!r}")
    if obj["ok"]:
        return obj.get("id"), {"result": obj["result"]}
    payload = {"error": obj.get("error", "unknown error")}
    if obj.get("retry_after_ms") is not None:
        payload["retry_after_ms"] = obj["retry_after_ms"]
    return obj.get("id"), payload
