"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.utils.validation import (
    check_in_range,
    check_integer,
    check_matrix,
    check_non_negative,
    check_positive,
    check_vector,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive(1.5, "x") == 1.5

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive(0.0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive(-3.0, "x")

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            check_positive(float("nan"), "x")

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="finite"):
            check_positive(float("inf"), "x")


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative(0.0, "x") == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match=">= 0"):
            check_non_negative(-1e-9, "x")


class TestCheckInRange:
    def test_inclusive_bounds(self):
        assert check_in_range(0.0, "x", 0.0, 1.0) == 0.0
        assert check_in_range(1.0, "x", 0.0, 1.0) == 1.0

    def test_exclusive_bounds_reject_edges(self):
        with pytest.raises(ValueError):
            check_in_range(0.0, "x", 0.0, 1.0, inclusive=False)

    def test_rejects_outside(self):
        with pytest.raises(ValueError):
            check_in_range(1.01, "x", 0.0, 1.0)


class TestCheckInteger:
    def test_accepts_int(self):
        assert check_integer(5, "n") == 5

    def test_accepts_numpy_int(self):
        assert check_integer(np.int64(7), "n") == 7

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            check_integer(True, "n")

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            check_integer(3.0, "n")

    def test_minimum(self):
        with pytest.raises(ValueError, match=">= 1"):
            check_integer(0, "n", minimum=1)


class TestCheckMatrix:
    def test_accepts_2d(self):
        out = check_matrix([[1, 2], [3, 4]], "m")
        assert out.shape == (2, 2)
        assert out.dtype == float

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            check_matrix([1, 2, 3], "m")

    def test_shape_requirements(self):
        check_matrix(np.ones((3, 4)), "m", n_rows=3, n_cols=4)
        with pytest.raises(ValueError, match="3 rows"):
            check_matrix(np.ones((2, 4)), "m", n_rows=3)
        with pytest.raises(ValueError, match="5 columns"):
            check_matrix(np.ones((3, 4)), "m", n_cols=5)

    def test_rejects_nan(self):
        bad = np.ones((2, 2))
        bad[0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            check_matrix(bad, "m")


class TestCheckVector:
    def test_accepts_1d(self):
        out = check_vector([1.0, 2.0], "v")
        assert out.shape == (2,)

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            check_vector(np.ones((2, 2)), "v")

    def test_length(self):
        with pytest.raises(ValueError, match="length 3"):
            check_vector([1.0, 2.0], "v", length=3)
