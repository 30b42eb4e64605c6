"""DBSCAN correctness on known geometries."""

import importlib

import numpy as np
import pytest

from repro.clustering import (
    NOISE,
    core_point_mask,
    dbscan,
    dense_edges,
    grid_edges,
    label_edges,
    naive_edges,
    pair_degree,
)
from repro.clustering.dbscan import DENSE_CUTOFF

from .bfs_oracle import bfs_dbscan

# ``repro.clustering.dbscan`` the attribute is the function; this is the module
dbscan_module = importlib.import_module("repro.clustering.dbscan")


def blobs(centers, n=40, spread=0.2, seed=0):
    rng = np.random.default_rng(seed)
    parts = [rng.normal(c, spread, size=(n, len(c))) for c in centers]
    return np.vstack(parts)


def test_two_blobs_two_clusters():
    points = blobs([(0, 0), (10, 10)])
    labels = dbscan(points, eps=1.0, min_samples=5)
    assert set(labels[:40]) == {labels[0]}
    assert set(labels[40:]) == {labels[40]}
    assert labels[0] != labels[40]


def test_isolated_points_are_noise():
    points = np.vstack([blobs([(0, 0)]), [(50, 50)], [(60, -60)]])
    labels = dbscan(points, eps=1.0, min_samples=5)
    assert labels[-1] == NOISE
    assert labels[-2] == NOISE


def test_chain_connectivity():
    # a line of points spaced 0.9 with eps=1: one cluster
    points = np.array([(0.9 * i, 0.0) for i in range(30)])
    labels = dbscan(points, eps=1.0, min_samples=3)
    assert len(set(labels.tolist())) == 1
    assert labels[0] == 0


def test_broken_chain_splits():
    points = np.array(
        [(0.9 * i, 0.0) for i in range(10)] + [(0.9 * i + 20, 0.0) for i in range(10)]
    )
    labels = dbscan(points, eps=1.0, min_samples=3)
    assert labels[0] != labels[10]
    assert (labels >= 0).all()


def test_min_samples_one_every_point_core():
    points = np.array([(0.0, 0.0), (100.0, 100.0)])
    labels = dbscan(points, eps=1.0, min_samples=1)
    assert set(labels.tolist()) == {0, 1}


def test_empty_and_single():
    assert dbscan(np.empty((0, 2)), eps=1.0, min_samples=3).size == 0
    single = dbscan(np.array([[1.0, 2.0]]), eps=1.0, min_samples=1)
    assert single.tolist() == [0]
    lonely = dbscan(np.array([[1.0, 2.0]]), eps=1.0, min_samples=2)
    assert lonely.tolist() == [NOISE]


def test_grid_equals_naive():
    rng = np.random.default_rng(7)
    points = rng.uniform(0, 20, size=(300, 2))
    grid = dbscan(points, eps=1.5, min_samples=4)
    lo, hi = naive_edges(points, 1.5)
    naive = label_edges(pair_degree(len(points), lo, hi), lo, hi, 4)
    assert np.array_equal(grid, naive)


def test_3d_points():
    points = blobs([(0, 0, 0), (5, 5, 5)], spread=0.1)
    labels = dbscan(points, eps=0.5, min_samples=4)
    assert labels[0] != labels[40]
    assert (labels >= 0).all()


def test_1d_points_reshaped():
    labels = dbscan(np.array([0.0, 0.1, 0.2, 10.0, 10.1, 10.2]), eps=0.3, min_samples=2)
    assert labels[0] == labels[2]
    assert labels[3] == labels[5]
    assert labels[0] != labels[3]


def test_invalid_parameters():
    with pytest.raises(ValueError):
        dbscan(np.zeros((3, 2)), eps=0.0, min_samples=2)
    with pytest.raises(ValueError):
        dbscan(np.zeros((3, 2)), eps=1.0, min_samples=0)


def test_invalid_parameters_are_rejected_for_empty_input_too():
    # n = 0 used to return before the checks ran
    for points in (np.empty((0, 2)), np.zeros((1, 2))):
        with pytest.raises(ValueError):
            dbscan(points, eps=0.0, min_samples=2)
        with pytest.raises(ValueError):
            dbscan(points, eps=-1.0, min_samples=2)
        with pytest.raises(ValueError):
            dbscan(points, eps=1.0, min_samples=0)


def pairs(edges):
    lo, hi = edges
    assert (lo < hi).all()
    return sorted(zip(lo.tolist(), hi.tolist()))


@pytest.mark.parametrize("producer", [dense_edges, grid_edges, naive_edges])
def test_edge_producers_exact(producer):
    points = np.array([(0.0, 0.0), (0.5, 0.0), (1.5, 0.0), (5.0, 5.0)])
    assert pairs(producer(points, 1.0)) == [(0, 1), (1, 2)]
    assert pairs(producer(points[:1], 1.0)) == []
    assert pairs(producer(np.empty((0, 2)), 1.0)) == []
    with pytest.raises(ValueError):
        producer(points, 0.0)


def test_dense_edges_from_a_start_row_are_the_full_list_filtered():
    rng = np.random.default_rng(3)
    points = rng.uniform(0, 6, size=(90, 3))
    full = pairs(dense_edges(points, 1.0))
    tail = pairs(dense_edges(points, 1.0, start=70))
    assert tail == [(lo, hi) for lo, hi in full if hi >= 70]


def test_dense_edges_in_several_row_blocks(monkeypatch):
    rng = np.random.default_rng(4)
    points = rng.uniform(0, 6, size=(120, 3))
    whole = pairs(dense_edges(points, 1.0))
    monkeypatch.setattr(dbscan_module, "_BLOCK_ELEMS", 120 * 3 * 7)
    assert pairs(dense_edges(points, 1.0)) == whole


def test_grid_edges_in_several_candidate_chunks(monkeypatch):
    rng = np.random.default_rng(5)
    points = rng.uniform(0, 6, size=(400, 3))
    whole = pairs(grid_edges(points, 1.0))
    monkeypatch.setattr(dbscan_module, "_PAIR_CHUNK", 97)
    assert pairs(grid_edges(points, 1.0)) == whole
    assert whole == pairs(dense_edges(points, 1.0))


def test_grid_edges_every_point_in_one_bucket():
    rng = np.random.default_rng(6)
    points = rng.uniform(0, 0.5, size=(300, 2))
    assert pairs(grid_edges(points, 5.0)) == pairs(dense_edges(points, 5.0))


def test_grid_edges_far_apart_and_negative_coordinates():
    # 2e7 buckets per axis, cubed, is past int64: keys are built from
    # compacted bucket coordinates, so the range must not matter
    rng = np.random.default_rng(7)
    blob = rng.normal(0, 0.4, size=(40, 3))
    points = np.vstack([blob - 1e7, blob, blob + 1e7])
    edges = pairs(grid_edges(points, 1.0))
    assert edges == pairs(dense_edges(points, 1.0))
    assert len(edges) > 100


def test_grid_edges_many_dimensions_fall_back_to_dense():
    rng = np.random.default_rng(8)
    points = rng.uniform(0, 3, size=(50, 40))
    assert pairs(grid_edges(points, 4.0)) == pairs(dense_edges(points, 4.0))


# 1100 is past the oracle's own switch (768 points) to its per-point grid index
@pytest.mark.parametrize("n", [DENSE_CUTOFF - 1, DENSE_CUTOFF, DENSE_CUTOFF + 1, 1100])
def test_labels_equal_the_bfs_on_both_sides_of_the_dense_cutoff(n):
    rng = np.random.default_rng(n)
    centers = rng.uniform(0, 25, size=(6, 3))
    points = np.vstack(
        [rng.normal(c, 0.8, size=(n // 6 + 1, 3)) for c in centers]
    )[:n]
    want = bfs_dbscan(points, eps=0.7, min_samples=4)
    assert np.array_equal(dbscan(points, eps=0.7, min_samples=4), want)
    for producer in (dense_edges, grid_edges, naive_edges):
        lo, hi = producer(points, 0.7)
        assert np.array_equal(label_edges(pair_degree(n, lo, hi), lo, hi, 4), want)


def test_border_point_joins_the_first_born_cluster():
    # two 4-point rows and, between them, a point within eps of one core
    # point of each but not core itself; whichever row holds the lowest
    # core index is cluster 0 and claims it
    left = [(0.0, 0.0), (0.4, 0.0), (0.8, 0.0), (1.2, 0.0)]
    right = [(2.8, 0.0), (3.2, 0.0), (3.6, 0.0), (4.0, 0.0)]
    border = (2.0, 0.0)
    for points in (left + right + [border], [border] + right + left, right + [border] + left):
        at = points.index(border)
        points = np.array(points)
        labels = dbscan(points, eps=0.85, min_samples=4)
        assert not core_point_mask(points, eps=0.85, min_samples=4)[at]
        assert np.array_equal(labels, bfs_dbscan(points, eps=0.85, min_samples=4))
        assert sorted(set(labels.tolist())) == [0, 1]
        assert labels[at] == 0


def test_long_chain_needs_many_hooking_rounds():
    # a path whose indices zig-zag: the component labels cannot settle in
    # one round of hooking
    rng = np.random.default_rng(11)
    order = rng.permutation(400)
    points = np.column_stack([order * 0.9, np.zeros(400)])
    labels = dbscan(points, eps=1.0, min_samples=2)
    assert np.array_equal(labels, bfs_dbscan(points, eps=1.0, min_samples=2))
    assert set(labels.tolist()) == {0}


def test_core_point_mask():
    points = np.array([(0.0, 0.0), (0.1, 0.0), (0.2, 0.0), (9.0, 9.0)])
    mask = core_point_mask(points, eps=0.5, min_samples=3)
    assert mask.tolist() == [True, True, True, False]


def test_eps_boundary_inclusive():
    points = np.array([(0.0, 0.0), (1.0, 0.0)])
    labels = dbscan(points, eps=1.0, min_samples=2)
    assert labels[0] == labels[1] == 0
