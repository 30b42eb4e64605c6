"""Test-only oracle: the per-cell forms of the thermal kernels.

``repro.analysis.thermal_kernels`` shipped these beside the grid kernels
until the per-tuple path of the thermal functions became the kernel over
one row. Kept verbatim — one Python float operation sequence per cell, a
four-deep pixel loop for the melt-pool statistics — so the property suite
can hold the kernels to them: ``array_equal`` for the Kalman recursion
(same IEEE-754 operations per element), ``allclose`` for melt-pool totals
(python-float accumulation reorders the sum), exact for peak and melt
counts.
"""

from __future__ import annotations

import math

import numpy as np


def kalman_predict_scalar(
    state: float,
    cov: float,
    energy: float,
    *,
    ambient: float,
    retention: float,
    coupling: float,
    process_var: float,
) -> tuple[float, float]:
    """Per-cell reference for :func:`kalman_predict` (same op order)."""
    predicted = ambient + retention * (state - ambient) + coupling * energy
    predicted_cov = retention * retention * cov + process_var
    return predicted, predicted_cov


def kalman_update_scalar(
    predicted: float,
    predicted_cov: float,
    measurement: float,
    *,
    sensor_var: float,
) -> tuple[float, float, float, bool]:
    """Per-cell reference for :func:`kalman_update` (same op order)."""
    valid = not math.isnan(measurement)
    gain = predicted_cov / (predicted_cov + sensor_var)
    innovation = (measurement - predicted) if valid else 0.0
    state = predicted + gain * innovation
    cov = (1.0 - gain) * predicted_cov if valid else predicted_cov
    return state, cov, innovation, valid


def meltpool_cell_stats_scalar(
    image: np.ndarray, cell_edge_px: int, melt_threshold: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pure-python per-cell reference for :func:`meltpool_cell_stats`.

    Accumulates with python floats, so totals agree with the kernel only
    to within summation reordering (the suite uses ``allclose``); peak
    and melt counts are order-free and match exactly.
    """
    rows, cols = image.shape
    if rows % cell_edge_px or cols % cell_edge_px:
        raise ValueError(
            f"image {image.shape} not divisible by cell edge {cell_edge_px}"
        )
    n_rows = rows // cell_edge_px
    n_cols = cols // cell_edge_px
    total = np.zeros((n_rows, n_cols))
    peak = np.zeros((n_rows, n_cols))
    melt = np.zeros((n_rows, n_cols))
    edge = cell_edge_px
    for i in range(n_rows):
        for j in range(n_cols):
            acc = 0.0
            top = -math.inf
            hot = 0
            for r in range(i * edge, (i + 1) * edge):
                for c in range(j * edge, (j + 1) * edge):
                    v = float(image[r, c])
                    acc += v
                    if v > top:
                        top = v
                    if v > melt_threshold:
                        hot += 1
            total[i, j] = acc
            peak[i, j] = top
            melt[i, j] = hot / (edge * edge)
    return total, peak, melt
