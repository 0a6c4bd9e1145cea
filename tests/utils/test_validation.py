"""Tests for repro.utils.validation."""

import pytest

from repro.utils.validation import check_probability, check_vertex


class TestCheckProbability:
    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_accepts_valid(self, p):
        assert check_probability(p) == p

    @pytest.mark.parametrize("p", [-0.01, 1.01, 2.0])
    def test_rejects_invalid(self, p):
        with pytest.raises(ValueError):
            check_probability(p)

    def test_message_names_parameter(self):
        with pytest.raises(ValueError, match="myprob"):
            check_probability(2.0, "myprob")

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            check_probability(float("nan"))


class TestCheckVertex:
    def test_accepts_in_range(self):
        assert check_vertex(3, 5) == 3

    def test_rejects_equal_to_n(self):
        with pytest.raises(ValueError):
            check_vertex(5, 5)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_vertex(-1, 5)

    def test_coerces_to_int(self):
        assert check_vertex(2.0, 5) == 2

    def test_message_names_parameter(self):
        with pytest.raises(ValueError, match="target"):
            check_vertex(9, 5, "target")
