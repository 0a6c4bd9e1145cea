"""Span tracer contract: no-op when disabled, faithful records when on."""

from __future__ import annotations

import json

import pytest

from repro.obs.trace import (
    _NULL_SPAN,
    current_tracer,
    disable_tracing,
    enable_tracing,
    span,
    tracing_enabled,
)


class TestDisabledPath:
    def test_span_returns_the_shared_null_singleton(self):
        assert span("anything", k=1) is _NULL_SPAN
        assert span("other") is _NULL_SPAN

    def test_null_span_is_a_working_context_manager(self):
        with span("x", a=1) as sp:
            sp.set(b=2)  # must be a silent no-op
        assert sp.wall_s == 0.0
        assert sp.cpu_s == 0.0
        assert sp.rss_delta_mb == 0.0

    def test_tracing_disabled_by_default(self):
        assert not tracing_enabled()
        assert current_tracer() is None


class TestEnabledPath:
    def test_enable_is_idempotent(self):
        t1 = enable_tracing()
        t2 = enable_tracing()
        assert t1 is t2
        assert tracing_enabled()
        assert current_tracer() is t1

    def test_disable_returns_the_tracer(self):
        t = enable_tracing()
        assert disable_tracing() is t
        assert disable_tracing() is None  # second call: nothing active

    def test_nesting_depth_and_parents(self):
        tracer = enable_tracing()
        with span("outer") as outer:
            with span("inner") as inner:
                pass
        assert outer.depth == 0 and outer.parent_id == -1
        assert inner.depth == 1 and inner.parent_id == outer.span_id
        names = [rec["name"] for rec in tracer.finished]
        assert names == ["inner", "outer"]  # completion order

    def test_attrs_and_set(self):
        tracer = enable_tracing()
        with span("probe", sigma=1.5) as sp:
            sp.set(eps_achieved=0.01)
        rec = tracer.finished[-1]
        assert rec["attrs"] == {"sigma": 1.5, "eps_achieved": 0.01}

    def test_timings_are_populated(self):
        enable_tracing()
        with span("work") as sp:
            sum(range(1000))
        assert sp.wall_s > 0.0
        assert sp.cpu_s >= 0.0

    def test_exception_recorded_and_propagated(self):
        tracer = enable_tracing()
        with pytest.raises(ValueError):
            with span("boom"):
                raise ValueError("no")
        assert tracer.finished[-1]["attrs"]["error"] == "ValueError"

    def test_exception_unwinding_through_nested_spans(self):
        tracer = enable_tracing()
        with pytest.raises(RuntimeError):
            with span("outer"):
                with span("inner"):
                    raise RuntimeError
        assert [rec["name"] for rec in tracer.finished] == ["inner", "outer"]
        assert tracer._stack == []

    def test_span_tree_nests_children(self):
        tracer = enable_tracing()
        with span("root"):
            with span("child_a"):
                with span("leaf"):
                    pass
            with span("child_b"):
                pass
        tree = tracer.span_tree()
        assert [node["name"] for node in tree] == ["root"]
        children = tree[0]["children"]
        assert [c["name"] for c in children] == ["child_a", "child_b"]
        assert children[0]["children"][0]["name"] == "leaf"


def test_jsonl_stream(tmp_path):
    path = tmp_path / "trace.jsonl"
    enable_tracing(path)
    with span("a", x=1):
        with span("b"):
            pass
    disable_tracing()
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [rec["name"] for rec in records] == ["b", "a"]
    for rec in records:
        assert set(rec) == {
            "id", "parent", "depth", "name", "wall_s", "cpu_s",
            "rss_delta_mb", "attrs",
        }
    assert records[1]["attrs"] == {"x": 1}
    assert records[0]["parent"] == records[1]["id"]
