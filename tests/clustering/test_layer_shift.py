"""A verdict does not depend on how high in the build its layers are.

Pairs are measured on lattice deltas — cell-centre pixels and layer
indices — times the per-axis scale, so moving every layer of a window up
by the same offset leaves its pairs, in order, and its labels equal.
Measured on mm heights instead, ``(k + 10) * t - k * t`` rounds
differently at different heights ``k``, and a pair exactly ``eps`` apart
across layers came and went with the height.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.clustering import LayerWindowClusterer, dense_edges, grid_edges, naive_edges
from repro.core.functions import DBSCANCorrelator
from repro.spe import StreamTuple

#: one layer: how far the index moves up, and its cell centres on a
#: half-pixel lattice (duplicates and exact-eps distances are common)
layers = st.lists(
    st.tuples(
        st.integers(0, 4),
        st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=6).map(
            lambda pts: np.array(pts, dtype=float).reshape(-1, 2) / 2.0
        ),
    ),
    min_size=1,
    max_size=12,
)


def window_at(base, runs, eps, min_samples, thickness, px_per_mm):
    window = LayerWindowClusterer(None, eps, min_samples, thickness, px_per_mm=px_per_mm)
    layer = base
    for move, xy in runs:
        layer += move
        window.append_layer(layer, xy)
    return window


@given(
    runs=layers,
    offset=st.integers(1, 100_000),
    eps=st.sampled_from([0.4, 0.25, 0.5]),
    min_samples=st.integers(1, 5),
    thickness=st.sampled_from([0.04, 0.05, 0.025]),
    px_per_mm=st.sampled_from([1.0, 4.0, 8.0]),
)
@settings(max_examples=200, deadline=None)
def test_shifting_every_layer_leaves_pairs_and_labels_equal(
    runs, offset, eps, min_samples, thickness, px_per_mm
):
    low = window_at(0, runs, eps, min_samples, thickness, px_per_mm)
    high = window_at(offset, runs, eps, min_samples, thickness, px_per_mm)
    assert np.array_equal(low._lo, high._lo)
    assert np.array_equal(low._hi, high._hi)
    assert np.array_equal(low.labels(), high.labels())
    # the from-scratch producers find the window's pairs at either height
    scale = np.array([1 / px_per_mm, 1 / px_per_mm, thickness])
    for window in (low, high):
        for producer in (dense_edges, grid_edges, naive_edges):
            lo, hi = producer(window._lattice, eps, scale=scale)
            assert np.array_equal(lo, low._lo) and np.array_equal(hi, low._hi)


#: three events at one cell, 10 layers apart: 10 x 0.04 mm is eps exactly
BASES = [0, 7, 100, 250]


@pytest.mark.parametrize("base", BASES)
def test_a_pair_exactly_eps_apart_across_layers_clusters_at_every_height(base):
    window = LayerWindowClusterer(None, 0.4, 3, 0.04)
    for layer in (base, base + 10, base + 20):
        window.append_layer(layer, np.array([[1.25, 2.5]]))
    assert window.labels().tolist() == [0, 0, 0]


@pytest.mark.parametrize("base", BASES)
def test_the_correlator_reports_the_same_cluster_at_every_height(base):
    correlator = DBSCANCorrelator(
        eps_mm=0.4, min_samples=3, px_per_mm=8.0, layer_thickness_mm=0.04,
        cell_volume_mm3=0.0025,
    )
    events = [
        StreamTuple(
            tau=float(layer), job="J", layer=layer, specimen="S02",
            payload={"center_x_px": 10.5, "center_y_px": 20.0},
        )
        for layer in (base, base + 10, base + 20)
    ]
    payload = correlator("J", base + 20, "S02", events)
    assert payload["num_clusters"] == 1
    assert payload["clusters"][0]["layers"] == (base, base + 20)
