"""The streak detector's windowed median against its per-position oracle.

``_windowed_median`` sorts every row's window at once and reads the
middle one or two entries; ``tests/core/streaks_oracle.py`` calls
``np.median`` once per row. They must agree exactly: on row lengths from 1
to 300 and windows from 1 to 40 (a window wider than the row included),
on integer-valued rows where ties abound, and on all-invalid and
all-valid masks.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.streaks import _windowed_median

from . import streaks_oracle as oracle


@st.composite
def rows(draw):
    n = draw(st.integers(1, 300))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["gray", "wide", "integers", "tiny-range"]))
    if kind == "gray":
        values = rng.normal(120.0, 25.0, n)
    elif kind == "wide":  # mixed exponents: how the middle two combine shows
        values = rng.lognormal(0.0, 4.0, n)
    elif kind == "integers":
        values = rng.integers(0, 256, n).astype(np.float64)
    else:  # a handful of distinct values: ties in nearly every window
        values = rng.integers(0, 3, n).astype(np.float64)
    mask = draw(st.sampled_from(["random", "sparse", "none", "all"]))
    if mask == "none":
        valid = np.zeros(n, dtype=bool)
    elif mask == "all":
        valid = np.ones(n, dtype=bool)
    else:
        valid = rng.random(n) < (0.7 if mask == "random" else 0.1)
    return values, valid


@given(row=rows(), window=st.integers(1, 40))
@settings(max_examples=400, deadline=None)
def test_windowed_median_equals_the_per_position_loop(row, window):
    values, valid = row
    shipped = _windowed_median(values, valid, window)
    expected = oracle.windowed_median(values, valid, window)
    assert shipped.dtype == expected.dtype
    np.testing.assert_array_equal(shipped, expected)


def test_integer_dtype_rows_match():
    """``np.median`` of an int64 segment averages in float64; so must the
    sorted pass."""
    values = np.array([5, 1, 1, 4, 4, 2, 9, 9, 9, 0, 3], dtype=np.int64)
    valid = values % 3 != 0
    for window in (1, 2, 4, 7, 25):
        np.testing.assert_array_equal(
            _windowed_median(values, valid, window),
            oracle.windowed_median(values, valid, window),
        )
