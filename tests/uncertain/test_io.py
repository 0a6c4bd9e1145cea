"""Tests for uncertain-graph IO."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.uncertain.graph import UncertainGraph
from repro.uncertain.io import read_uncertain_graph, write_uncertain_graph


@st.composite
def array_graphs(draw):
    """``from_arrays`` graphs with p ∈ [0, 1], either pair orientation,
    and explicit ``p = 0`` pairs kept or dropped."""
    n = draw(st.integers(2, 12))
    pairs = sorted(
        draw(
            st.sets(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                .filter(lambda e: e[0] != e[1])
                .map(lambda e: (min(e), max(e))),
                max_size=20,
            )
        )
    )
    size = len(pairs)
    ps = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
            min_size=size,
            max_size=size,
        )
    )
    flips = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    us = [v if flip else u for (u, v), flip in zip(pairs, flips)]
    vs = [u if flip else v for (u, v), flip in zip(pairs, flips)]
    return UncertainGraph.from_arrays(n, us, vs, ps, keep_zero=draw(st.booleans()))


class TestRoundTrip:
    def test_probabilities_preserved(self, tmp_path, fig1b):
        path = tmp_path / "ug.txt"
        write_uncertain_graph(fig1b, path)
        back = read_uncertain_graph(path)
        assert back.num_vertices == 4
        for u, v, p in fig1b.candidate_pairs():
            assert back.probability(u, v) == pytest.approx(p)

    def test_full_precision(self, tmp_path):
        ug = UncertainGraph.from_pairs(2, [(0, 1, 0.123456789012345)])
        path = tmp_path / "ug.txt"
        write_uncertain_graph(ug, path)
        assert read_uncertain_graph(path).probability(0, 1) == 0.123456789012345

    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    @given(array_graphs())
    def test_round_trip_is_exact(self, ug):
        """``read(write(g))`` gives back the same pairs and the same floats."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ug.txt"
            write_uncertain_graph(ug, path)
            back = read_uncertain_graph(path)
        assert back.num_vertices == ug.num_vertices
        assert back.num_candidate_pairs == ug.num_candidate_pairs
        assert sorted(back.candidate_pairs()) == sorted(ug.candidate_pairs())

    def test_isolated_vertices_survive(self, tmp_path):
        ug = UncertainGraph.from_pairs(9, [(0, 1, 0.4)])
        path = tmp_path / "ug.txt"
        write_uncertain_graph(ug, path)
        assert read_uncertain_graph(path).num_vertices == 9

    def test_zero_probability_pairs_survive(self, tmp_path):
        """An explicit ``p = 0`` pair counts toward the header's
        ``candidates=`` and toward each endpoint's addend count ℓ."""
        ug = UncertainGraph.from_arrays(3, [0, 1], [1, 2], [0.0, 0.5], keep_zero=True)
        path = tmp_path / "ug.txt"
        write_uncertain_graph(ug, path)
        back = read_uncertain_graph(path)
        assert back.num_candidate_pairs == 2
        assert sorted(back.candidate_pairs()) == [(0, 1, 0.0), (1, 2, 0.5)]
        np.testing.assert_array_equal(
            back.incident_probability_csr()[0], ug.incident_probability_csr()[0]
        )


class TestReading:
    def test_n_override(self, tmp_path, fig1b):
        path = tmp_path / "ug.txt"
        write_uncertain_graph(fig1b, path)
        assert read_uncertain_graph(path, n=11).num_vertices == 11

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n")
        with pytest.raises(ValueError, match="malformed"):
            read_uncertain_graph(path)

    def test_headerless(self, tmp_path):
        path = tmp_path / "plain.txt"
        path.write_text("0 3 0.25\n")
        ug = read_uncertain_graph(path)
        assert ug.num_vertices == 4
        assert ug.probability(0, 3) == 0.25


class TestHeaderValidation:
    """Truncated / corrupted releases must not load silently."""

    def _release_lines(self, tmp_path, fig1b):
        path = tmp_path / "ug.txt"
        write_uncertain_graph(fig1b, path)
        return path, path.read_text().splitlines(keepends=True)

    def test_truncated_file_rejected(self, tmp_path, fig1b):
        path, lines = self._release_lines(tmp_path, fig1b)
        assert len(lines) > 2
        path.write_text("".join(lines[:-1]))  # drop the last pair line
        with pytest.raises(ValueError, match="truncated or corrupted"):
            read_uncertain_graph(path)

    def test_extra_lines_rejected(self, tmp_path, fig1b):
        path, lines = self._release_lines(tmp_path, fig1b)
        path.write_text("".join(lines) + "0 1 0.125\n")
        with pytest.raises(ValueError, match="truncated or corrupted"):
            read_uncertain_graph(path)

    def test_repeated_pair_rejected(self, tmp_path):
        """A pair listed twice, in either orientation, is a corrupted
        release even when the header's line count agrees."""
        path = tmp_path / "dup.txt"
        path.write_text("# n=3 candidates=2\n0 1 0.5\n1 0 0.7\n")
        with pytest.raises(ValueError, match=r"pair \(0, 1\) listed more than once"):
            read_uncertain_graph(path)

    def test_id_beyond_header_n_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# n=3 candidates=1\n0 7 0.5\n")
        with pytest.raises(ValueError, match="out of range for header n=3"):
            read_uncertain_graph(path)

    def test_id_beyond_header_n_rejected_even_with_larger_explicit_n(
        self, tmp_path
    ):
        """Explicit n (e.g. repro verify) must not mask header violations."""
        path = tmp_path / "bad.txt"
        path.write_text("# n=3 candidates=1\n0 7 0.5\n")
        with pytest.raises(ValueError, match="out of range for header"):
            read_uncertain_graph(path, n=20)

    def test_round_trip_still_validates_clean(self, tmp_path, fig1b):
        path = tmp_path / "ug.txt"
        write_uncertain_graph(fig1b, path)
        back = read_uncertain_graph(path)
        assert back.num_candidate_pairs == fig1b.num_candidate_pairs

    def test_headerless_file_still_accepted(self, tmp_path):
        path = tmp_path / "plain.txt"
        path.write_text("0 5 0.25\n")
        assert read_uncertain_graph(path).num_vertices == 6

    @pytest.mark.parametrize("bad", ["99999999999999999999", "-99999999999999999999"])
    def test_id_beyond_int64_rejected(self, tmp_path, bad):
        path = tmp_path / "huge.txt"
        path.write_text(f"0 1 0.5\n{bad} 1 0.5\n")
        with pytest.raises(ValueError, match="does not fit int64"):
            read_uncertain_graph(path)


class TestCorruptedReleaseFuzz:
    """A headed release that lost its tail or had one byte flipped
    either loads or raises ``ValueError``: never another exception."""

    @staticmethod
    def _load_or_reject(data: bytes) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ug.txt"
            path.write_bytes(data)
            try:
                ug = read_uncertain_graph(path)
            except ValueError:
                return
        assert ug.num_vertices >= 0
        ug.incident_probability_csr()

    @staticmethod
    def _release_bytes(ug) -> bytes:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ug.txt"
            write_uncertain_graph(ug, path)
            return path.read_bytes()

    @settings(max_examples=80, suppress_health_check=[HealthCheck.too_slow])
    @given(array_graphs(), st.data())
    def test_truncation(self, ug, data):
        raw = self._release_bytes(ug)
        self._load_or_reject(raw[: data.draw(st.integers(0, len(raw)))])

    @settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
    @given(array_graphs(), st.data())
    def test_flipped_byte(self, ug, data):
        raw = bytearray(self._release_bytes(ug))
        raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
        self._load_or_reject(bytes(raw))
