"""Test-only oracle: the per-position windowed median of the streak detector.

``repro.core.streaks._windowed_median`` shipped this loop — one
``np.median`` call per image row — until it became one sort over a matrix
of all rows' windows. Kept verbatim so ``tests/core/test_streaks_oracle.py``
can hold the shipped kernel to it ``array_equal``.
"""

from __future__ import annotations

import numpy as np


def windowed_median(values: np.ndarray, valid: np.ndarray, window: int) -> np.ndarray:
    """Median of valid entries in a centered window, per position."""
    half = max(1, window // 2)
    n = len(values)
    baseline = np.zeros(n)
    for i in range(n):
        lo = max(0, i - half)
        hi = min(n, i + half + 1)
        segment = values[lo:hi][valid[lo:hi]]
        baseline[i] = np.median(segment) if len(segment) else 0.0
    return baseline
