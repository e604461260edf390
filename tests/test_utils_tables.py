"""Tests for repro.utils.tables."""

import pytest

from repro.utils.tables import format_float, format_table


class TestFormatFloat:
    def test_zero(self):
        assert format_float(0.0) == "0"

    def test_regular(self):
        assert format_float(0.1234, digits=3) == "0.123"

    def test_tiny_goes_scientific(self):
        out = format_float(3e-7)
        assert "e" in out

    def test_negative(self):
        assert format_float(-1.5, digits=2) == "-1.50"


class TestFormatTable:
    def test_basic_render(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["x", None]])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "-+-" in lines[1]
        assert len(lines) == 4

    def test_title(self):
        text = format_table(["a"], [[1]], title="T")
        assert text.splitlines()[0] == "T"

    def test_alignment(self):
        text = format_table(["col"], [["short"], ["a-very-long-cell"]])
        lines = text.splitlines()
        assert len(lines[-1]) >= len("a-very-long-cell")

    def test_wrong_row_width_raises(self):
        with pytest.raises(ValueError, match="2 cells"):
            format_table(["a"], [[1, 2]])

    def test_float_digits(self):
        text = format_table(["v"], [[0.123456]], digits=2)
        assert "0.12" in text
        assert "0.1235" not in text
