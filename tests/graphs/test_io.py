"""Tests for certain-graph edge-list IO."""

import pytest

from repro.graphs.generators import erdos_renyi
from repro.graphs.graph import Graph
from repro.graphs.io import read_edge_list, write_edge_list


class TestRoundTrip:
    def test_simple(self, tmp_path, triangle):
        path = tmp_path / "g.txt"
        write_edge_list(triangle, path)
        assert read_edge_list(path) == triangle

    def test_trailing_isolated_vertices_survive(self, tmp_path):
        g = Graph.from_edges(6, [(0, 1)])
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        assert read_edge_list(path).num_vertices == 6

    def test_random_graph(self, tmp_path):
        g = erdos_renyi(40, 0.1, seed=0)
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        assert read_edge_list(path) == g


class TestReading:
    def test_explicit_n_override(self, tmp_path, triangle):
        path = tmp_path / "g.txt"
        write_edge_list(triangle, path)
        assert read_edge_list(path, n=10).num_vertices == 10

    def test_headerless_snap_style(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text("# comment line\n0 1\n1 2\n")
        g = read_edge_list(path)
        assert g.num_vertices == 3
        assert g.num_edges == 2

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n\n1 2\n")
        assert read_edge_list(path).num_edges == 2

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0\n")
        with pytest.raises(ValueError, match="malformed"):
            read_edge_list(path)

    @pytest.mark.parametrize("bad", ["99999999999999999999", "-99999999999999999999"])
    def test_id_beyond_int64_rejected(self, tmp_path, bad):
        path = tmp_path / "huge.txt"
        path.write_text(f"0 1\n{bad} 1\n")
        with pytest.raises(ValueError, match="does not fit int64"):
            read_edge_list(path)

    def test_duplicate_edges_collapsed(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("0 1\n1 0\n0 1\n")
        assert read_edge_list(path).num_edges == 1
