"""Numpy kernels for the thermal workloads (estimator + melt-pool features).

Two hot paths:

* the **Kalman recursion** of ``repro.thermal.estimator`` — one
  independent scalar filter per grid cell over the per-layer surface
  temperature state.  The grid kernels apply the predict/update step to
  every cell at once, each element through the IEEE-754 operation
  sequence a per-cell filter would run.
* the **melt-pool statistics** of ``repro.thermal.features`` — per-cell
  total/peak/melt-fraction grids plus the two plate-level features the
  laser-parameter regressor inverts.  The per-cell grids use the same
  strided-reshape trick as :func:`repro.analysis.cells.cell_means`.

The per-cell reference implementations the property suite holds these
kernels to live in ``tests/analysis/thermal_oracle.py``.

A measurement of NaN models a dropped sensor sample for that cell: the
update is skipped and the cell coasts on its prediction with the
prediction covariance (no information arrived, so no variance reduction).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "kalman_predict",
    "kalman_update",
    "meltpool_cell_stats",
    "top_k_mean",
    "laser_feature_vector",
]


def kalman_predict(
    state: np.ndarray,
    cov: np.ndarray,
    energy: np.ndarray,
    *,
    ambient: float,
    retention: float,
    coupling: float,
    process_var: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Time-update every cell through the layer-deposition model.

    State transition per cell (layer index k):

        x_k = ambient + retention * (x_{k-1} - ambient) + coupling * E_k

    i.e. the previous layer's excess heat decays geometrically while the
    scan deposits ``E_k`` joules into the cell.  The covariance follows
    the linear model: ``P_k^- = retention^2 * P_{k-1} + Q``.
    """
    predicted = ambient + retention * (state - ambient) + coupling * energy
    predicted_cov = retention * retention * cov + process_var
    return predicted, predicted_cov


def kalman_update(
    predicted: np.ndarray,
    predicted_cov: np.ndarray,
    measurement: np.ndarray,
    *,
    sensor_var: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Measurement-update every cell; NaN measurements coast.

    Returns ``(state, cov, innovation, valid)``.  ``innovation`` is zero
    for dropped (NaN) cells so downstream statistics can sum it without a
    mask, and ``valid`` is the boolean dropout mask.
    """
    valid = ~np.isnan(measurement)
    gain = predicted_cov / (predicted_cov + sensor_var)
    innovation = np.where(valid, measurement - predicted, 0.0)
    state = predicted + gain * innovation
    cov = np.where(valid, (1.0 - gain) * predicted_cov, predicted_cov)
    return state, cov, innovation, valid


def meltpool_cell_stats(
    image: np.ndarray, cell_edge_px: int, melt_threshold: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-cell (total, peak, melt_fraction) grids over a melt-pool frame.

    ``image`` is ``(H, W)`` with both dimensions divisible by
    ``cell_edge_px``.  ``melt_fraction`` counts pixels strictly above the
    threshold — an exact comparison, so a pixel landing on the boundary
    is counted the same way by any implementation.
    """
    rows, cols = image.shape
    if rows % cell_edge_px or cols % cell_edge_px:
        raise ValueError(
            f"image {image.shape} not divisible by cell edge {cell_edge_px}"
        )
    blocks = image.reshape(
        rows // cell_edge_px, cell_edge_px, cols // cell_edge_px, cell_edge_px
    )
    total = blocks.sum(axis=(1, 3))
    peak = blocks.max(axis=(1, 3))
    melt_fraction = (blocks > melt_threshold).mean(axis=(1, 3))
    return total, peak, melt_fraction


def top_k_mean(image: np.ndarray, k: int) -> float:
    """Mean of the ``k`` brightest pixels (the robust peak estimate).

    ``np.partition`` is deterministic for a fixed input, and the mean of
    a fixed-size top set is insensitive to ties' ordering, so the value
    is reproducible across deploy modes.
    """
    flat = np.asarray(image, dtype=np.float64).ravel()
    if k <= 0 or k > flat.size:
        raise ValueError(f"k={k} out of range for {flat.size} pixels")
    return float(np.partition(flat, flat.size - k)[flat.size - k :].mean())


def laser_feature_vector(
    image: np.ndarray, track_length_px: float, *, top_k: int = 64
) -> tuple[float, float]:
    """The two log-features the power/speed regressor inverts.

    With a Gaussian track cross-section of amplitude ``A ∝ P/sqrt(v)``
    and width ``sigma ∝ sqrt(P/v)``:

    * ``log_peak``  = log(mean of top-k pixels)        ≈ c1 + log P − ½ log v
    * ``log_dose``  = log(sum(image) / track_length)   ≈ c2 + 3/2 log P − log v

    The 2×2 log-linear system is invertible (det −¼), so two features
    identify both parameters; the constants are absorbed by calibration.
    """
    if track_length_px <= 0.0:
        raise ValueError("track_length_px must be positive")
    peak = top_k_mean(image, top_k)
    dose = float(np.asarray(image, dtype=np.float64).sum()) / track_length_px
    if peak <= 0.0 or dose <= 0.0:
        raise ValueError("melt-pool frame carries no positive signal")
    return math.log(peak), math.log(dose)
