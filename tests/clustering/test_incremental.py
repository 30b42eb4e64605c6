"""Cross-layer window clustering (correlateEvents semantics)."""

import numpy as np
import pytest

from repro.clustering import LayerWindowClusterer, dbscan, summarize_clusters

from .bfs_oracle import loop_summaries


def disk(cx, cy, n=12, r=0.3, seed=0):
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0, 2 * np.pi, n)
    radii = rng.uniform(0, r, n)
    return np.column_stack([cx + radii * np.cos(angles), cy + radii * np.sin(angles)])


def test_single_layer_clusters():
    clusterer = LayerWindowClusterer(
        window_layers=5, eps=1.0, min_samples=3, layer_thickness_mm=0.04
    )
    result = clusterer.observe_layer(0, disk(5, 5))
    assert result.num_clusters == 1
    assert result.noise_count == 0


def test_cluster_grows_across_layers():
    clusterer = LayerWindowClusterer(
        window_layers=10, eps=1.0, min_samples=3, layer_thickness_mm=0.04
    )
    for layer in range(5):
        result = clusterer.observe_layer(layer, disk(5, 5, seed=layer))
    assert result.num_clusters == 1
    summary = result.summaries[0]
    assert summary.layers == (0, 4)
    assert summary.size == 5 * 12


def test_window_evicts_old_layers():
    clusterer = LayerWindowClusterer(
        window_layers=2, eps=1.0, min_samples=3, layer_thickness_mm=0.04
    )
    clusterer.observe_layer(0, disk(0, 0))
    clusterer.observe_layer(1, disk(0, 0, seed=1))
    result = clusterer.observe_layer(2, disk(0, 0, seed=2))
    # only layers 1 and 2 remain in the window
    assert result.summaries[0].layers == (1, 2)
    assert result.summaries[0].size == 24


def test_empty_layers_yield_empty_result():
    clusterer = LayerWindowClusterer(
        window_layers=3, eps=1.0, min_samples=3, layer_thickness_mm=0.04
    )
    result = clusterer.observe_layer(0, np.empty((0, 2)))
    assert result.num_clusters == 0
    assert len(result.labels) == 0


def test_separate_defects_remain_separate():
    clusterer = LayerWindowClusterer(
        window_layers=5, eps=1.0, min_samples=3, layer_thickness_mm=0.04
    )
    points = np.vstack([disk(0, 0), disk(20, 20, seed=1)])
    result = clusterer.observe_layer(0, points)
    assert result.num_clusters == 2


def test_window_matches_batch_dbscan():
    """Window result == plain DBSCAN over the same stacked points."""
    clusterer = LayerWindowClusterer(
        window_layers=4, eps=1.0, min_samples=3, layer_thickness_mm=0.1
    )
    layers = {i: disk(i, i, seed=i) for i in range(4)}
    for layer, xy in layers.items():
        result = clusterer.observe_layer(layer, xy)
    stacked = np.vstack(
        [np.hstack([xy, np.full((len(xy), 1), layer * 0.1)]) for layer, xy in layers.items()]
    )
    expected = dbscan(stacked, eps=1.0, min_samples=3)
    assert np.array_equal(result.labels, expected)
    assert np.array_equal(result.points, stacked)


def test_min_volume_filters_summaries():
    clusterer = LayerWindowClusterer(
        window_layers=3, eps=1.0, min_samples=3, layer_thickness_mm=0.04,
        cell_volume_mm3=0.1, min_volume_mm3=5.0,
    )
    result = clusterer.observe_layer(0, disk(0, 0, n=12))  # volume 1.2 < 5
    assert result.num_clusters == 1  # cluster exists...
    assert result.summaries == []  # ...but is below the reporting volume


def test_summarize_clusters_fields():
    points = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.1]])
    labels = np.array([0, 0, 0])
    layers = np.array([3, 3, 4])
    summaries = summarize_clusters(points, labels, layers, cell_volume_mm3=2.0)
    assert len(summaries) == 1
    s = summaries[0]
    assert s.size == 3
    assert s.volume_mm3 == 6.0
    assert s.layers == (3, 4)
    assert s.bbox_min == (0.0, 0.0, 0.0)
    assert s.bbox_max == (1.0, 1.0, 0.1)


def test_summaries_equal_the_mask_per_cluster_loop():
    """Same numbers, to the bit, as one boolean mask per cluster."""
    rng = np.random.default_rng(9)
    for trial in range(40):
        n = int(rng.integers(1, 600))
        points = rng.uniform(0, 250, size=(n, 3))
        labels = rng.integers(-1, int(rng.integers(0, 9)), size=n)
        layers = rng.integers(0, 50, size=n)
        min_volume = float(rng.choice([0.0, 30.0]))
        got = summarize_clusters(points, labels, layers, 0.7, min_volume)
        want = loop_summaries(points, labels, layers, 0.7, min_volume)
        assert [tuple(s.__dict__.values()) for s in got] == want
        for summary in got:
            assert type(summary.size) is int and type(summary.layers[0]) is int
            assert all(type(v) is float for v in summary.centroid + summary.bbox_min)


def test_summarize_no_clusters():
    nothing = np.empty(0, dtype=int)
    assert summarize_clusters(np.empty((0, 3)), nothing, nothing, 1.0) == []
    noise = np.full(4, -1)
    assert summarize_clusters(np.zeros((4, 3)), noise, np.zeros(4, dtype=int), 1.0) == []


def test_empty_layers_leave_the_clusters_alone():
    """A layer without events changes nothing until a non-empty one expires
    (what the removed skip-if-unchanged variant special-cased)."""
    clusterer = LayerWindowClusterer(
        window_layers=5, eps=1.0, min_samples=3, layer_thickness_mm=0.04
    )
    first = clusterer.observe_layer(0, disk(0, 0))
    second = clusterer.observe_layer(1, np.empty((0, 2)))
    assert np.array_equal(second.labels, first.labels)
    assert second.summaries == first.summaries
    third = clusterer.observe_layer(2, disk(0, 0, seed=3))
    assert len(third.labels) == 24
    assert clusterer.layer_counts == [(0, 12), (1, 0), (2, 12)]


def test_expiry_of_the_last_nonempty_layer_empties_the_window():
    clusterer = LayerWindowClusterer(
        window_layers=2, eps=1.0, min_samples=3, layer_thickness_mm=0.04
    )
    clusterer.observe_layer(0, disk(0, 0))
    clusterer.observe_layer(1, np.empty((0, 2)))
    # layer 0 (non-empty) expires now
    result = clusterer.observe_layer(2, np.empty((0, 2)))
    assert result.num_clusters == 0
    assert len(result.labels) == 0


def test_window_equals_from_scratch_every_layer():
    clusterer = LayerWindowClusterer(
        window_layers=3, eps=1.0, min_samples=3, layer_thickness_mm=0.04
    )
    rng = np.random.default_rng(5)
    history = []
    for layer in range(10):
        xy = disk(layer % 3, 0, seed=layer) if rng.random() > 0.4 else np.empty((0, 2))
        history.append((layer, xy))
        result = clusterer.observe_layer(layer, xy)
        stacked = np.vstack(
            [np.hstack([p, np.full((len(p), 1), l * 0.04)]) for l, p in history[-3:]]
        )
        assert np.array_equal(result.labels, dbscan(stacked, eps=1.0, min_samples=3))


def test_expire_and_append_are_the_steps_under_observe_layer():
    make = lambda L: LayerWindowClusterer(  # noqa: E731
        window_layers=L, eps=1.0, min_samples=3, layer_thickness_mm=0.04
    )
    observed, stepped = make(2), make(None)
    for layer in range(5):
        want = observed.observe_layer(layer, disk(layer * 0.3, 0, seed=layer))
        if layer >= 2:
            stepped.expire_layers(1)
        stepped.append_layer(layer, disk(layer * 0.3, 0, seed=layer))
        got = stepped.cluster()
        assert np.array_equal(got.labels, want.labels)
        assert got.summaries == want.summaries
        assert stepped.layer_counts == observed.layer_counts
    stepped.reset()
    assert stepped.layer_counts == [] and len(stepped.labels()) == 0


def test_invalid_window():
    with pytest.raises(ValueError):
        LayerWindowClusterer(window_layers=0, eps=1.0, min_samples=3, layer_thickness_mm=0.04)
