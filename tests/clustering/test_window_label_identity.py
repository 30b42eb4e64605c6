"""Label identity: the kept-between-calls window and the array-at-a-time
labeller must return the labels of a from-scratch sequential BFS, ids
included — ``array_equal``, not merely the same partition.

Points sit on a half-unit lattice so that duplicates and distances exactly
equal to ``eps`` are common, which is where a neighbour search that
differed in arithmetic or in visiting order would show.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.clustering import (
    LayerWindowClusterer,
    dbscan,
    dense_edges,
    grid_edges,
    label_edges,
    naive_edges,
    pair_degree,
)

from .bfs_oracle import bfs_dbscan, loop_summaries

lattice_xy = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=0, max_size=14
).map(lambda pts: np.array(pts, dtype=float).reshape(-1, 2) / 2.0)

#: one observed layer: how far the layer index moves (0 = the same index
#: again, negative = backwards, > 1 = a gap), its points (often none),
#: and whether the clusterer is checkpointed and replaced first
steps = st.lists(
    st.tuples(st.integers(-2, 3), lattice_xy, st.booleans()), min_size=1, max_size=12
)


def stack(window, thickness):
    """The window's points the way a from-scratch caller would build them
    (thickness 1: on the lattice)."""
    blocks = [
        np.hstack([xy, np.full((len(xy), 1), layer * thickness)]) for layer, xy in window
    ]
    return np.vstack(blocks) if blocks else np.empty((0, 3))


@given(
    steps=steps,
    window_layers=st.integers(1, 5),
    eps=st.sampled_from([0.5, 1.0, 1.5]),
    min_samples=st.integers(1, 5),
    thickness=st.sampled_from([0.04, 0.5, 1.0]),
)
@settings(max_examples=150, deadline=None)
def test_window_labels_equal_a_from_scratch_bfs(
    steps, window_layers, eps, min_samples, thickness
):
    def make():
        return LayerWindowClusterer(
            window_layers, eps, min_samples, thickness, cell_volume_mm3=0.5
        )

    clusterer = make()
    history = []
    layer = 3
    for move, xy, restore in steps:
        layer += move
        if restore:
            state = clusterer.snapshot_state()
            clusterer = make()
            clusterer.restore_state(state)
        history.append((layer, xy))
        result = clusterer.observe_layer(layer, xy)
        window = history[-window_layers:]
        points = stack(window, thickness)
        assert np.array_equal(result.points, points)
        assert np.array_equal(
            result.point_layers,
            np.concatenate([np.full(len(xy), l, dtype=np.int64) for l, xy in window]),
        )
        want = bfs_dbscan(stack(window, 1), eps, min_samples, scale=(1.0, 1.0, thickness))
        assert np.array_equal(result.labels, want)
        assert [tuple(s.__dict__.values()) for s in result.summaries] == loop_summaries(
            points, want, result.point_layers, 0.5
        )
        assert clusterer.layer_counts == [(l, len(xy)) for l, xy in window]


@given(
    points=st.lists(
        st.tuples(st.integers(0, 16), st.integers(0, 16), st.integers(0, 3)),
        min_size=0,
        max_size=90,
    ).map(lambda pts: np.array(pts, dtype=float).reshape(-1, 3) / 2.0),
    eps=st.sampled_from([0.5, 1.0, 1.5]),
    min_samples=st.integers(1, 6),
)
@settings(max_examples=150, deadline=None)
def test_every_producer_and_the_labeller_equal_the_bfs(points, eps, min_samples):
    want = bfs_dbscan(points, eps, min_samples) if len(points) else np.empty(0, dtype=np.int64)
    assert np.array_equal(dbscan(points, eps, min_samples), want)
    edge_sets = []
    for producer in (dense_edges, grid_edges, naive_edges):
        lo, hi = producer(points, eps)
        degree = pair_degree(len(points), lo, hi)
        assert np.array_equal(label_edges(degree, lo, hi, min_samples), want)
        edge_sets.append(list(zip(lo.tolist(), hi.tolist())))
    # not merely the same pairs: the same (hi, lo) order, which the
    # labeller's first hook round relies on
    assert edge_sets[0] == edge_sets[1] == edge_sets[2]
    assert edge_sets[0] == sorted(edge_sets[0], key=lambda pair: pair[::-1])


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 300),
    eps=st.floats(0.05, 3.0),
    min_samples=st.integers(1, 6),
)
@settings(max_examples=60, deadline=None)
def test_off_lattice_points_equal_the_bfs_too(seed, n, eps, min_samples):
    """Arbitrary floats: the producers round exactly like the BFS's searches."""
    rng = np.random.default_rng(seed)
    points = rng.normal(rng.uniform(0, 8, size=(1, 3)), 1.5, size=(n, 3))
    want = bfs_dbscan(points, eps, min_samples)
    for producer in (dense_edges, grid_edges, naive_edges):
        lo, hi = producer(points, eps)
        assert np.array_equal(label_edges(pair_degree(n, lo, hi), lo, hi, min_samples), want)
