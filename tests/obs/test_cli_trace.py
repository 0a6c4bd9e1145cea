"""CLI observability: --trace receipts, bit identity, `repro trace` report."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.graphs.generators import erdos_renyi
from repro.graphs.io import write_edge_list
from repro.obs.manifest import SCHEMA_ID, load_manifest


@pytest.fixture()
def edges(tmp_path):
    graph = erdos_renyi(60, 0.15, seed=1)
    path = tmp_path / "graph.txt"
    write_edge_list(graph, path)
    return path


def _obfuscate_args(edges, output):
    return [
        "obfuscate",
        "--input", str(edges),
        "--output", str(output),
        "--k", "3",
        "--eps", "0.2",
        "--attempts", "2",
        "--delta", "0.05",
        "--seed", "7",
    ]


def test_traced_run_is_bit_identical(tmp_path, edges, capsys):
    plain = tmp_path / "plain.txt"
    traced = tmp_path / "traced.txt"
    run_dir = tmp_path / "run"
    assert main(_obfuscate_args(edges, plain)) == 0
    assert main(_obfuscate_args(edges, traced) + ["--trace", str(run_dir)]) == 0
    assert plain.read_bytes() == traced.read_bytes()
    assert "trace written to" in capsys.readouterr().err


def test_trace_dir_receipts(tmp_path, edges):
    run_dir = tmp_path / "run"
    out = tmp_path / "out.txt"
    assert main(_obfuscate_args(edges, out) + ["--trace", str(run_dir)]) == 0

    records = [
        json.loads(line)
        for line in (run_dir / "trace.jsonl").read_text().splitlines()
    ]
    names = {rec["name"] for rec in records}
    assert {"read_input", "obfuscate", "probe", "write_output"} <= names

    manifest = load_manifest(run_dir / "manifest.json")  # raises if invalid
    assert manifest["schema"] == SCHEMA_ID
    assert manifest["command"] == "repro obfuscate"
    assert manifest["seed"] == 7
    assert manifest["config"]["k"] == 3.0
    # observability plumbing must not leak into the recorded config
    assert "trace_dir" not in manifest["config"]
    assert manifest["results"] == {"exit_code": 0}
    assert manifest["metrics"]["search.runs"] >= 1
    assert manifest["metrics"]["generate.pairs_drawn"] > 0


def test_trace_subcommand_reports(tmp_path, edges, capsys):
    run_dir = tmp_path / "run"
    out = tmp_path / "out.txt"
    assert main(_obfuscate_args(edges, out) + ["--trace", str(run_dir)]) == 0
    capsys.readouterr()

    assert main(["trace", str(run_dir)]) == 0
    report = capsys.readouterr().out
    assert "per-phase (top-level spans):" in report
    assert "kernel mix:" in report
    assert "repro obfuscate" in report

    # a bare trace.jsonl (no manifest) still renders the span tables
    assert main(["trace", str(run_dir / "trace.jsonl")]) == 0
    assert "per-phase" in capsys.readouterr().out


def test_trace_reports_triangle_lane_choice(tmp_path, edges, capsys):
    release = tmp_path / "release.txt"
    run_dir = tmp_path / "run"
    assert main(_obfuscate_args(edges, release)) == 0
    stats = ["stats", "--release", str(release), "--worlds", "5", "--seed", "1"]
    assert main(stats + ["--trace", str(run_dir)]) == 0
    metrics = load_manifest(run_dir / "manifest.json")["metrics"]
    assert metrics["worlds.triangles.sliced"] + metrics["worlds.triangles.alone"] == 5
    assert metrics["triangles.wedges"] > 0
    capsys.readouterr()

    assert main(["trace", str(run_dir)]) == 0
    assert "triangle lanes: " in capsys.readouterr().out


def test_trace_subcommand_missing_path(tmp_path, capsys):
    assert main(["trace", str(tmp_path / "nope")]) == 2
    assert "trace:" in capsys.readouterr().err


def test_untraced_run_leaves_no_receipts(tmp_path, edges):
    out = tmp_path / "out.txt"
    assert main(_obfuscate_args(edges, out)) == 0
    assert not list(tmp_path.glob("**/trace.jsonl"))
    assert not list(tmp_path.glob("**/manifest.json"))


def test_verbose_flag_logs_to_stderr(tmp_path, edges, capsys):
    out = tmp_path / "out.txt"
    assert main(_obfuscate_args(edges, out) + ["-v"]) == 0
    capsys.readouterr()  # logging handlers write to the real stderr; just
    # assert the flag parses and the run still succeeds (exit code above)
