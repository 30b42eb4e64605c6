"""Cell-grid extraction from OT images.

The use case partitions each specimen's pixels into square cells
(``isolateCell``, Alg. 1 L5) whose edge controls the accuracy/latency
trade-off swept in Figure 5 (40 x 40 px down to 2 x 2 px, i.e. 5 mm² down
to 0.25 mm² on the 8 px/mm sensor). Each cell is summarized by its mean
light emission.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Cell:
    """One analysis cell of a specimen cross-section."""

    row: int  # cell-grid row within the (cropped) region
    col: int
    mean_intensity: float
    center_x_px: float  # in full-image pixel coordinates
    center_y_px: float


#: below this cell edge the integer kernel adds strided slices (2·edge
#: whole-array adds); from it on, it sums reshaped axes (two reductions whose
#: inner runs are then long enough to amortise). Measured on 200 x 100
#: ``uint8`` views the two cross between edge 6 and 8 (EXPERIMENTS.md E18).
_SUM_AXES_FROM_EDGE = 8


def _integer_sums_fit(dtype: np.dtype, cell_edge_px: int) -> bool:
    """True when every per-cell sum of a ``dtype`` image fits ``uint32``.

    Only bool and unsigned pixels of at most two bytes qualify (the OT
    sensor is 8-bit): ``edge² · max < 2³²``.
    """
    if dtype.kind == "b":
        peak = 1
    elif dtype.kind == "u" and dtype.itemsize <= 2:
        peak = (1 << (8 * dtype.itemsize)) - 1
    else:
        return False
    return cell_edge_px * cell_edge_px * peak < 1 << 32


def _integer_cell_sums(view: np.ndarray, edge: int, rows: int, cols: int) -> np.ndarray:
    """Exact per-cell pixel sums of a cropped bool/unsigned view, ``uint32``."""
    if edge == 1:
        return view.astype(np.uint32)
    if edge < _SUM_AXES_FROM_EDGE:
        # dtype= widens the pixels inside the first add: no separate copy
        by_row = np.add(view[0::edge], view[1::edge], dtype=np.uint32)
        for i in range(2, edge):
            by_row += view[i::edge]
        sums = by_row[:, 0::edge] + by_row[:, 1::edge]
        for j in range(2, edge):
            sums += by_row[:, j::edge]
        return sums
    by_row = view.reshape(rows, edge, cols * edge).sum(axis=1, dtype=np.uint32)
    # dtype again: sum() would widen a small unsigned accumulator to uint64
    return by_row.reshape(rows, cols, edge).sum(axis=2, dtype=np.uint32)


def cell_means(image: np.ndarray, cell_edge_px: int) -> np.ndarray:
    """Per-cell mean intensity of ``image`` on a ``cell_edge_px`` grid.

    The image is cropped to a whole number of cells (the paper's specimen
    footprints divide evenly for all evaluated cell sizes). Returns a
    (rows, cols) float array.

    Sensor images (bool / unsigned, at most 16 bit) are summed in integers
    and divided once. Every partial sum of the float formulation below is
    an exact integer too, so both give the same bits; any other dtype, or
    a cell too large for ``uint32`` sums, takes the float formulation.
    """
    if cell_edge_px < 1:
        raise ValueError("cell edge must be >= 1 px")
    height, width = image.shape
    rows = height // cell_edge_px
    cols = width // cell_edge_px
    if rows == 0 or cols == 0:
        return np.empty((0, 0), dtype=float)
    cropped = image[: rows * cell_edge_px, : cols * cell_edge_px]
    if _integer_sums_fit(image.dtype, cell_edge_px):
        sums = _integer_cell_sums(cropped, cell_edge_px, rows, cols)
        return sums / float(cell_edge_px * cell_edge_px)
    cropped = cropped.astype(float)
    return cropped.reshape(rows, cell_edge_px, cols, cell_edge_px).mean(axis=(1, 3))


def masked_cell_means(
    image: np.ndarray,
    mask: np.ndarray,
    cell_edge_px: int,
    coverage: np.ndarray | None = None,
) -> np.ndarray:
    """Per-cell mean intensity over masked (part) pixels only.

    For cells that straddle a shaped part's boundary, the plain cell mean
    mixes powder into the average and fakes a cold anomaly; dividing the
    masked intensity sum by the masked pixel count gives the part-only
    mean. Cells with no part pixels yield 0.

    ``coverage`` is ``cell_means(mask, cell_edge_px)``; a caller that also
    needs it (the part-coverage keep-mask) computes it once and passes it.
    """
    mask = np.asarray(mask)
    if mask.shape != image.shape:
        raise ValueError("mask must match the image shape")
    if coverage is None:
        coverage = cell_means(mask, cell_edge_px)
    if mask.dtype.kind == "b" and _integer_sums_fit(image.dtype, cell_edge_px):
        # a bool mask keeps sensor pixels in their dtype: same exact sums
        weighted = cell_means(image * mask, cell_edge_px)
    else:
        weighted = cell_means(
            np.asarray(image, dtype=float) * np.asarray(mask, dtype=float),
            cell_edge_px,
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        means = np.where(coverage > 0, weighted / np.maximum(coverage, 1e-12), 0.0)
    return means


def extract_cells(
    image: np.ndarray,
    cell_edge_px: int,
    origin_row: int = 0,
    origin_col: int = 0,
) -> list[Cell]:
    """Cells of a specimen sub-image, with centers in full-image pixels.

    ``origin_row``/``origin_col`` locate the sub-image inside the full OT
    frame so downstream clustering works in one global coordinate system.
    """
    means = cell_means(image, cell_edge_px)
    cells: list[Cell] = []
    half = cell_edge_px / 2.0
    for row in range(means.shape[0]):
        for col in range(means.shape[1]):
            cells.append(
                Cell(
                    row=row,
                    col=col,
                    mean_intensity=float(means[row, col]),
                    center_x_px=origin_col + col * cell_edge_px + half,
                    center_y_px=origin_row + row * cell_edge_px + half,
                )
            )
    return cells


def cell_centers(
    grid_shape: tuple[int, int],
    cell_edge_px: int,
    origin_row: int = 0,
    origin_col: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Center coordinates of every cell, flattened row-major.

    Returns ``(center_y_px, center_x_px)`` float arrays of length
    rows*cols in full-image pixel coordinates. The arithmetic mirrors the
    scalar path exactly — ``(origin + index * edge) + edge/2`` over exact
    integer intermediates — so centers are bit-identical to
    :func:`extract_cells` / the per-tuple ``IsolateCells`` loop.
    """
    rows, cols = grid_shape
    half = cell_edge_px / 2.0
    ys = (origin_row + np.arange(rows, dtype=np.int64) * cell_edge_px) + half
    xs = (origin_col + np.arange(cols, dtype=np.int64) * cell_edge_px) + half
    return np.repeat(ys, cols), np.tile(xs, rows)


def cell_grid_shape(image_shape: tuple[int, int], cell_edge_px: int) -> tuple[int, int]:
    """(rows, cols) of the cell grid over an image of ``image_shape``."""
    return image_shape[0] // cell_edge_px, image_shape[1] // cell_edge_px
