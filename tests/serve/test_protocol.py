"""Wire-protocol unit tests: parse, encode, round-trip."""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve.protocol import (
    OPS,
    Query,
    decode_response,
    encode_response,
    parse_request,
    wire_payload,
)

#: Arbitrary JSON values, nested lists and objects included.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=16,
)

#: Request-shaped objects: the protocol's own keys with arbitrary values,
#: so the fuzz reaches field validation and not only the JSON decoder.
REQUEST_OBJECTS = st.dictionaries(
    st.sampled_from(
        ["id", "op", "source", "target", "k", "hops", "max_hops",
         "worlds", "seed", "timeout_ms"]
    ),
    st.sampled_from(sorted(OPS)) | JSON_VALUES,
)


class TestParseRequest:
    def test_minimal_reliability(self):
        rid, q, timeout_ms = parse_request(
            '{"id": 3, "op": "reliability", "source": 1, "target": 2}'
        )
        assert rid == 3
        assert q == Query(op="reliability", source=1, target=2)
        assert timeout_ms is None

    def test_all_fields(self):
        _, q, _ = parse_request(
            json.dumps(
                {
                    "op": "reliability",
                    "source": 0,
                    "target": 5,
                    "max_hops": 3,
                    "worlds": 32,
                    "seed": 9,
                }
            )
        )
        assert q.max_hops == 3 and q.worlds == 32 and q.seed == 9

    def test_every_op_parses(self):
        samples = {
            "degree": {"source": 1},
            "reliability": {"source": 1, "target": 2},
            "khop": {"source": 1, "hops": 2},
            "distance": {"source": 1, "target": 2},
            "knn": {"source": 1, "k": 3},
            "health": {},
        }
        assert set(samples) == set(OPS)
        for op, fields in samples.items():
            _, q, _ = parse_request(json.dumps({"op": op, **fields}))
            assert q.op == op

    def test_timeout_ms(self):
        _, _, timeout_ms = parse_request(
            '{"op": "degree", "source": 1, "timeout_ms": 250}'
        )
        assert timeout_ms == 250
        with pytest.raises(ValueError):
            parse_request('{"op": "degree", "source": 1, "timeout_ms": 0}')
        with pytest.raises(ValueError):
            parse_request('{"op": "degree", "source": 1, "timeout_ms": "1"}')

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            "[1, 2]",
            '{"op": "nope", "source": 1}',
            '{"op": "reliability", "source": 1}',
            '{"op": "reliability", "source": "a", "target": 2}',
            '{"op": "reliability", "source": true, "target": 2}',
            '{"op": "khop", "source": 1, "hops": -1}',
            '{"op": "knn", "source": 1, "k": 0}',
            '{"op": "degree", "source": 1, "worlds": 0}',
        ],
    )
    def test_rejects(self, line):
        with pytest.raises(ValueError):
            parse_request(line)

    def test_deep_nesting_is_malformed(self):
        """Nesting past the decoder's recursion limit is a ValueError like
        any other malformed line, not a RecursionError."""
        for depth in (500, 1000, 100_000):
            for line in ("[" * depth, b"[" * depth + b"\n"):
                with pytest.raises(ValueError, match="malformed JSON request"):
                    parse_request(line)

    @settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.text()
        | st.binary()
        | JSON_VALUES.map(json.dumps)
        | REQUEST_OBJECTS.map(json.dumps)
        | st.integers(1, 5000).map(lambda depth: "[" * depth + "]" * depth)
    )
    def test_any_line_parses_or_raises_value_error(self, line):
        try:
            parse_request(line)
        except ValueError:
            pass

    def test_unhashable_op_rejected(self):
        for op in ("[]", "{}"):
            with pytest.raises(ValueError, match="unknown op"):
                parse_request(f'{{"op": {op}, "source": 1}}')


class TestResponses:
    def test_ok_round_trip(self):
        line = encode_response(11, {"result": {"value": 0.5}})
        rid, payload = decode_response(line)
        assert rid == 11 and payload == {"result": {"value": 0.5}}

    def test_error_round_trip(self):
        line = encode_response("x", {"error": "boom"})
        rid, payload = decode_response(line)
        assert rid == "x" and payload == {"error": "boom"}

    def test_every_line_is_strict_json(self):
        payload = {
            "result": wire_payload(
                Query(op="distance", source=0, target=1),
                ({2: 0.25, float("inf"): 0.75}, float("inf"), float("inf")),
            )
        }
        line = encode_response(1, payload)
        obj = json.loads(line, parse_constant=lambda _: pytest.fail("non-strict JSON"))
        assert obj["result"]["distribution"] == {"2": 0.25, "inf": 0.75}
        assert obj["result"]["median"] == "inf"

    def test_distance_distribution_sorted_finite_first(self):
        payload = wire_payload(
            Query(op="distance", source=0, target=1),
            ({float("inf"): 0.5, 3: 0.25, 1: 0.25}, 3.0, 1.0),
        )
        assert list(payload["distribution"]) == ["1", "3", "inf"]
        assert payload["median"] == 3.0 and payload["majority"] == 1.0
        assert not math.isinf(payload["median"])
