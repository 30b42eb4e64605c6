"""Property tests: thermal/melt-pool kernels == the per-cell oracle.

The kernels are the only implementation ``src/`` runs, for a lone tuple
and for a block alike; :mod:`tests.analysis.thermal_oracle` keeps the
per-cell arithmetic they replaced. Each property pits a grid kernel
against its oracle over randomized inputs — including NaN (dropped-out)
measurements, cells exactly on the melt threshold, and non-contiguous
views.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    kalman_predict,
    kalman_update,
    laser_feature_vector,
    meltpool_cell_stats,
    top_k_mean,
)

from .thermal_oracle import (
    kalman_predict_scalar,
    kalman_update_scalar,
    meltpool_cell_stats_scalar,
)

_temps = st.floats(min_value=-50.0, max_value=400.0, allow_nan=False)
_covs = st.floats(min_value=1e-6, max_value=100.0, allow_nan=False)
_energies = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
_measurements = st.one_of(st.just(float("nan")), _temps)


def _grid(values, rows, cols):
    return np.array(values, dtype=np.float64).reshape(rows, cols)


_shapes = st.tuples(
    st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5)
)


@st.composite
def _kalman_inputs(draw):
    rows, cols = draw(_shapes)
    n = rows * cols
    state = _grid(draw(st.lists(_temps, min_size=n, max_size=n)), rows, cols)
    cov = _grid(draw(st.lists(_covs, min_size=n, max_size=n)), rows, cols)
    energy = _grid(draw(st.lists(_energies, min_size=n, max_size=n)), rows, cols)
    measured = _grid(
        draw(st.lists(_measurements, min_size=n, max_size=n)), rows, cols
    )
    return state, cov, energy, measured


PARAMS = dict(ambient=80.0, retention=0.62, coupling=55.0, process_var=0.25)


class TestKalmanKernelParity:
    @given(inputs=_kalman_inputs())
    @settings(max_examples=200, deadline=None)
    def test_predict_bit_identical_to_scalar(self, inputs):
        state, cov, energy, _ = inputs
        k_state, k_cov = kalman_predict(state, cov, energy, **PARAMS)
        for idx in np.ndindex(state.shape):
            s_state, s_cov = kalman_predict_scalar(
                float(state[idx]), float(cov[idx]), float(energy[idx]), **PARAMS
            )
            assert k_state[idx] == s_state  # bit-identical, not allclose
            assert k_cov[idx] == s_cov

    @given(inputs=_kalman_inputs())
    @settings(max_examples=200, deadline=None)
    def test_update_bit_identical_to_scalar_incl_nan(self, inputs):
        state, cov, _, measured = inputs
        k_state, k_cov, k_innov, k_valid = kalman_update(
            state, cov, measured, sensor_var=2.25
        )
        for idx in np.ndindex(state.shape):
            s_state, s_cov, s_innov, s_valid = kalman_update_scalar(
                float(state[idx]), float(cov[idx]), float(measured[idx]),
                sensor_var=2.25,
            )
            assert k_state[idx] == s_state
            assert k_cov[idx] == s_cov
            assert k_innov[idx] == s_innov
            assert bool(k_valid[idx]) == s_valid

    @given(inputs=_kalman_inputs())
    @settings(max_examples=100, deadline=None)
    def test_nan_measurement_coasts(self, inputs):
        """A dropped-out cell keeps its prediction and covariance."""
        state, cov, _, measured = inputs
        k_state, k_cov, k_innov, k_valid = kalman_update(
            state, cov, measured, sensor_var=2.25
        )
        dropped = np.isnan(measured)
        assert np.array_equal(k_state[dropped], state[dropped])
        assert np.array_equal(k_cov[dropped], cov[dropped])
        assert not k_innov[dropped].any()
        assert not k_valid[dropped].any()

    @given(inputs=_kalman_inputs())
    @settings(max_examples=100, deadline=None)
    def test_update_contracts_covariance(self, inputs):
        """A valid measurement never increases uncertainty."""
        state, cov, _, measured = inputs
        _, k_cov, _, k_valid = kalman_update(state, cov, measured, sensor_var=2.25)
        assert np.all(k_cov[k_valid] <= cov[k_valid])
        assert np.all(k_cov > 0)


_images = st.tuples(
    st.integers(min_value=1, max_value=4),  # cell rows
    st.integers(min_value=1, max_value=4),  # cell cols
    st.integers(min_value=1, max_value=4),  # cell edge px
).flatmap(
    lambda dims: st.lists(
        st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
        min_size=dims[0] * dims[2] * dims[1] * dims[2],
        max_size=dims[0] * dims[2] * dims[1] * dims[2],
    ).map(
        lambda vals: (
            np.array(vals, dtype=np.float64).reshape(
                dims[0] * dims[2], dims[1] * dims[2]
            ),
            dims[2],
        )
    )
)


class TestMeltPoolStatsParity:
    @given(image_edge=_images,
           threshold=st.floats(min_value=0.0, max_value=200.0, allow_nan=False))
    @settings(max_examples=150, deadline=None)
    def test_kernel_matches_scalar(self, image_edge, threshold):
        image, edge = image_edge
        k_total, k_peak, k_melt = meltpool_cell_stats(image, edge, threshold)
        s_total, s_peak, s_melt = meltpool_cell_stats_scalar(image, edge, threshold)
        # peak and melt-fraction are exact (max / counting); totals are
        # float sums whose order differs between the strided reshape and
        # the python loop, so allclose with a tight tolerance
        assert np.array_equal(k_peak, s_peak)
        assert np.array_equal(k_melt, s_melt)
        np.testing.assert_allclose(k_total, s_total, rtol=1e-12, atol=1e-9)

    def test_rejects_non_dividing_edge(self):
        with pytest.raises(ValueError):
            meltpool_cell_stats(np.zeros((7, 7)), 3, 10.0)

    @given(image_edge=_images)
    @settings(max_examples=50, deadline=None)
    def test_threshold_boundary_is_strict(self, image_edge):
        """Cells exactly at the threshold do not count as melted."""
        image, edge = image_edge
        threshold = float(image.max())
        _, _, melt = meltpool_cell_stats(image, edge, threshold)
        _, _, s_melt = meltpool_cell_stats_scalar(image, edge, threshold)
        assert np.array_equal(melt, s_melt)
        assert float(melt.max()) == 0.0  # > threshold, not >=


class TestLaserFeatures:
    @given(
        values=st.lists(
            st.floats(min_value=0.1, max_value=300.0, allow_nan=False),
            min_size=4, max_size=64,
        ),
        k=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=100, deadline=None)
    def test_top_k_mean_matches_sort_oracle(self, values, k):
        image = np.array(values, dtype=np.float64).reshape(1, -1)
        k = min(k, len(values))  # k > pixel count is rejected by contract
        expected = float(np.mean(np.sort(np.asarray(values))[-k:]))
        assert math.isclose(top_k_mean(image, k), expected, rel_tol=1e-12)

    def test_top_k_mean_rejects_out_of_range_k(self):
        with pytest.raises(ValueError):
            top_k_mean(np.ones((2, 2)), 5)
        with pytest.raises(ValueError):
            top_k_mean(np.ones((2, 2)), 0)

    def test_feature_vector_is_log_linear_in_amplitude(self):
        """Scaling the image by c shifts log_peak and log_dose by log c."""
        rng = np.random.default_rng(5)
        image = rng.uniform(1.0, 50.0, size=(24, 24))
        lp1, ld1 = laser_feature_vector(image, 40.0, top_k=16)
        lp2, ld2 = laser_feature_vector(image * 3.0, 40.0, top_k=16)
        assert math.isclose(lp2 - lp1, math.log(3.0), rel_tol=1e-9)
        assert math.isclose(ld2 - ld1, math.log(3.0), rel_tol=1e-9)

    def test_feature_vector_rejects_dark_image(self):
        with pytest.raises(ValueError):
            laser_feature_vector(np.zeros((8, 8)), 10.0, top_k=4)
