"""Test-only oracle: the float64 cell-mean formulation this repo shipped
before ``repro.analysis.cells`` started summing sensor images in integers.

Kept verbatim — copy to float64, reshape to ``(rows, edge, cols, edge)``,
``mean(axis=(1, 3))``; the masked variant multiplies in float and reduces
the mask a second time — so the property suite can demand ``array_equal``
(not ``allclose``) from the kernel for every dtype and cell edge.
"""

from __future__ import annotations

import numpy as np


def float_cell_means(image: np.ndarray, cell_edge_px: int) -> np.ndarray:
    height, width = image.shape
    rows = height // cell_edge_px
    cols = width // cell_edge_px
    if rows == 0 or cols == 0:
        return np.empty((0, 0), dtype=float)
    cropped = image[: rows * cell_edge_px, : cols * cell_edge_px].astype(float)
    return cropped.reshape(rows, cell_edge_px, cols, cell_edge_px).mean(axis=(1, 3))


def float_masked_cell_means(
    image: np.ndarray, mask: np.ndarray, cell_edge_px: int
) -> np.ndarray:
    mask = np.asarray(mask, dtype=float)
    weighted = float_cell_means(np.asarray(image, dtype=float) * mask, cell_edge_px)
    coverage = float_cell_means(mask, cell_edge_px)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(coverage > 0, weighted / np.maximum(coverage, 1e-12), 0.0)
