import math

import numpy as np
import pytest

from algaeid.fields import as_number

HUGE = 10 ** 400  # beyond the float range


@pytest.mark.parametrize("value, kind, expected", [
    (3, int, 3),
    (3, float, 3.0),
    (2.5, float, 2.5),
    (3.0, int, 3),
    (-0.0, float, -0.0),
    pytest.param(HUGE, int, HUGE, id="huge-int"),
    (np.int64(7), int, 7),
    (np.int64(7), float, 7.0),
    (np.float64(2.5), float, 2.5),
    (np.float64(4.0), int, 4),
])
def test_as_number_returns_plain_python_numbers(value, kind, expected):
    got = as_number("x", value, kind)
    # repr tells -0.0 from 0.0
    assert type(got) is kind and repr(got) == repr(expected)


@pytest.mark.parametrize("value, kind, error, message", [
    (True, int, ValueError, "x must be a number, got True"),
    (False, float, ValueError, "x must be a number, got False"),
    ("3", float, ValueError, "x must be a number, got '3'"),
    (None, int, ValueError, "x must be a number, got None"),
    (2.5, int, ValueError, "x must be an integer, got 2.5"),
    (np.float64(2.5), int, ValueError, "x must be an integer, got np.float64(2.5)"),
    (math.nan, float, ValueError, "x must be finite, got nan"),
    (math.nan, int, ValueError, "x must be finite, got nan"),
    (math.inf, float, ValueError, "x must be finite, got inf"),
    (-math.inf, int, ValueError, "x must be finite, got -inf"),
    (np.float64(math.nan), float, ValueError, "x must be finite, got np.float64(nan)"),
    (np.float64(-math.inf), float, ValueError, "x must be finite, got np.float64(-inf)"),
    pytest.param(HUGE, float, ValueError, "x is too large for a float", id="huge-float"),
])
def test_as_number_rejects_as_before(value, kind, error, message):
    with pytest.raises(error) as info:
        as_number("x", value, kind)
    assert type(info.value) is error and str(info.value) == message
