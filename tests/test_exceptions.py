import math
from fractions import Fraction

import numpy as np
import pytest

from lingcond.exceptions import finite, integer


class TestInteger:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3), np.int32(3)])
    def test_integers_pass_as_python_int(self, value):
        result = integer(value, "x")
        assert result == 3 and type(result) is int

    @pytest.mark.parametrize("value", [1.5, 2.0, np.float64(2.0), "3", True, np.True_, None])
    def test_non_integers_rejected(self, value):
        with pytest.raises(ValueError, match="x must be an integer"):
            integer(value, "x")

    def test_low_bound(self):
        assert integer(0, "x", low=0) == 0
        with pytest.raises(ValueError, match="x must be an integer >= 1, got 0"):
            integer(0, "x", low=1)


class TestFinite:
    @pytest.mark.parametrize("value, expected", [
        (0.5, 0.5), (2, 2.0), (np.float32(0.5), 0.5), (np.int64(2), 2.0), (Fraction(1, 4), 0.25),
    ])
    def test_finite_reals_pass_as_float(self, value, expected):
        result = finite(value, "y")
        assert result == expected and type(result) is float

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "0.1", True, None, 1j])
    def test_others_rejected(self, value):
        with pytest.raises(ValueError, match="y must be a finite number"):
            finite(value, "y")
