"""``cell_means`` / ``masked_cell_means`` against the float oracle, bit for bit.

The kernel sums bool and small unsigned images in integers and divides
once (ISSUE 16); every other input takes the float formulation it always
took. Either way the result must be ``array_equal`` — not ``allclose`` —
to :mod:`tests.analysis.float_oracle`, for every dtype, cell edge, memory
layout and image size, and the integer path must decline exactly where a
per-cell sum could leave ``uint32``.

Runs under numpy 1.24 and current in CI's ``kernel-parity`` job: integer
promotion and ``sum(dtype=)`` on small unsigned types changed with NEP 50.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import cell_means, masked_cell_means
from repro.analysis.cells import _integer_cell_sums, _integer_sums_fit

from .float_oracle import float_cell_means, float_masked_cell_means

_DTYPES = [np.uint8, np.uint16, np.bool_, np.int64, np.float64]


def _random_image(rng: np.random.Generator, dtype, shape) -> np.ndarray:
    if dtype is np.bool_:
        return rng.random(shape) < 0.6
    if dtype is np.float64:
        image = rng.uniform(-1e3, 1e3, size=shape)
        image[rng.random(shape) < 0.02] = np.nan
        return image
    if dtype is np.int64:
        return rng.integers(-(2**40), 2**40, size=shape, dtype=np.int64)
    info = np.iinfo(dtype)
    image = rng.integers(0, info.max, size=shape, dtype=dtype, endpoint=True)
    image[rng.random(shape) < 0.3] = info.max  # saturated pixels: the largest sums
    return image


@st.composite
def _views(draw):
    """An image of any supported dtype seen through a non-trivial view."""
    dtype = draw(st.sampled_from(_DTYPES))
    seed = draw(st.integers(0, 2**32 - 1))
    height = draw(st.integers(1, 70))
    width = draw(st.integers(1, 70))
    image = _random_image(np.random.default_rng(seed), dtype, (height, width))
    layout = draw(st.sampled_from(["whole", "crop", "strided", "transposed", "fortran"]))
    if layout == "crop":
        top = draw(st.integers(0, height - 1))
        left = draw(st.integers(0, width - 1))
        image = image[top:, left : left + draw(st.integers(1, width - left))]
    elif layout == "strided":
        image = image[:: draw(st.integers(1, 3)), :: draw(st.sampled_from([-1, 2, 3]))]
    elif layout == "transposed":
        image = image.T
    elif layout == "fortran":
        image = np.asfortranarray(image)
    return image


def _assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    # -0.0 and 0.0 compare equal; the sign must agree as well
    assert np.array_equal(np.signbit(got), np.signbit(want))


@given(image=_views(), edge=st.integers(1, 16))
@settings(max_examples=600, deadline=None)
def test_cell_means_equal_the_float_oracle(image, edge):
    _assert_same_bits(cell_means(image, edge), float_cell_means(image, edge))


@pytest.mark.parametrize("edge", range(1, 17))
@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.bool_])
def test_every_edge_on_a_specimen_sized_sensor_view(dtype, edge):
    """The shape the pipeline actually reduces: a 200 x 100 window of a
    larger frame, whichever of the two integer reductions the edge picks."""
    frame = _random_image(np.random.default_rng(edge), dtype, (260, 300))
    view = frame[31:231, 57:157]
    _assert_same_bits(cell_means(view, edge), float_cell_means(view, edge))


@pytest.mark.parametrize(
    "dtype, fits, declines",
    [
        (np.bool_, 65535, 65536),  # edge² · 1 < 2³²
        (np.uint8, 4104, 4105),  # edge² · 255 < 2³²
        (np.uint16, 256, 257),  # edge² · 65535 < 2³²
    ],
)
def test_integer_path_declines_exactly_at_the_uint32_boundary(dtype, fits, declines):
    peak = 1 if dtype is np.bool_ else int(np.iinfo(dtype).max)
    assert fits * fits * peak < 2**32 <= declines * declines * peak
    assert _integer_sums_fit(np.dtype(dtype), fits)
    assert not _integer_sums_fit(np.dtype(dtype), declines)


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int64, np.uint32, np.uint64,
                                   np.float32, np.float64])
def test_integer_path_is_for_bool_and_small_unsigned_only(dtype):
    assert not _integer_sums_fit(np.dtype(dtype), 1)


def test_saturated_cells_at_the_boundary_do_not_wrap():
    """All-max images put every cell sum at its largest possible value."""
    full16 = np.full((2 * 257, 2 * 257), 65535, dtype=np.uint16)
    for edge in (256, 257):  # last edge that fits, first that declines
        _assert_same_bits(cell_means(full16, edge), float_cell_means(full16, edge))
        assert cell_means(full16, edge)[0, 0] == 65535.0
    full8 = np.full((4104, 4104), 255, dtype=np.uint8)
    sums = _integer_cell_sums(full8, 4104, 1, 1)
    assert sums.dtype == np.uint32 and int(sums[0, 0]) == 4104 * 4104 * 255
    assert cell_means(full8, 4104)[0, 0] == 255.0


def test_degenerate_grids_and_invalid_edges():
    assert cell_means(np.zeros((3, 3), dtype=np.uint8), 4).shape == (0, 0)
    assert cell_means(np.zeros((0, 5), dtype=np.uint8), 1).shape == (0, 0)
    with pytest.raises(ValueError):
        cell_means(np.zeros((4, 4), dtype=np.uint8), 0)


@st.composite
def _image_and_mask(draw):
    image = draw(_views())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["bool", "uint8", "float01", "weights"]))
    if kind == "weights":
        mask = rng.random(image.shape)  # fractional weights stay on the float path
    else:
        mask = rng.random(image.shape) < draw(st.sampled_from([0.0, 0.3, 0.9, 1.0]))
        if kind == "uint8":
            mask = mask.astype(np.uint8)
        elif kind == "float01":
            mask = mask.astype(float)
    return image, mask


@given(pair=_image_and_mask(), edge=st.integers(1, 16))
@settings(max_examples=400, deadline=None)
def test_masked_cell_means_equal_the_float_oracle(pair, edge):
    image, mask = pair
    want = float_masked_cell_means(image, mask, edge)
    _assert_same_bits(masked_cell_means(image, mask, edge), want)
    # a caller that reduced the mask already hands the grid in: same bits,
    # and the grid it hands in is the one the oracle reduces a second time
    coverage = cell_means(mask, edge)
    _assert_same_bits(coverage, float_cell_means(np.asarray(mask, dtype=float), edge))
    _assert_same_bits(masked_cell_means(image, mask, edge, coverage), want)


def test_masked_cell_means_rejects_a_mismatched_mask():
    with pytest.raises(ValueError, match="mask must match"):
        masked_cell_means(
            np.zeros((4, 4), dtype=np.uint8), np.zeros((2, 2), dtype=bool), 2
        )
