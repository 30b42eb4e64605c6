"""Property-based DBSCAN invariants."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.clustering import (
    core_point_mask,
    dbscan,
    label_edges,
    naive_edges,
    pair_degree,
    rand_index,
)

point_arrays = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=200),
    ),
    min_size=1,
    max_size=80,
).map(lambda pts: np.array(pts, dtype=float) / 10.0)


@given(points=point_arrays, eps=st.sampled_from([0.5, 1.0, 2.0]), k=st.integers(2, 5))
@settings(max_examples=60, deadline=None)
def test_grid_and_naive_agree(points, eps, k):
    grid = dbscan(points, eps=eps, min_samples=k)
    lo, hi = naive_edges(points, eps)
    naive = label_edges(pair_degree(len(points), lo, hi), lo, hi, k)
    assert np.array_equal(grid, naive)


@given(points=point_arrays, eps=st.sampled_from([0.5, 1.0]), k=st.integers(2, 5))
@settings(max_examples=60, deadline=None)
def test_core_points_never_noise(points, eps, k):
    labels = dbscan(points, eps=eps, min_samples=k)
    core = core_point_mask(points, eps=eps, min_samples=k)
    assert (labels[core] >= 0).all()


@given(points=point_arrays, eps=st.sampled_from([0.5, 1.0]), k=st.integers(2, 5))
@settings(max_examples=60, deadline=None)
def test_noise_points_are_not_core(points, eps, k):
    labels = dbscan(points, eps=eps, min_samples=k)
    core = core_point_mask(points, eps=eps, min_samples=k)
    noise = labels < 0
    assert not (noise & core).any()


@given(
    points=point_arrays,
    eps=st.sampled_from([0.5, 1.0]),
    k=st.integers(2, 4),
    seed=st.integers(0, 5),
)
@settings(max_examples=40, deadline=None)
def test_permutation_invariance_of_partition(points, eps, k, seed):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(points))
    labels = dbscan(points, eps=eps, min_samples=k)
    permuted_labels = dbscan(points[perm], eps=eps, min_samples=k)
    # map back to original order and compare partitions
    unpermuted = np.empty_like(permuted_labels)
    unpermuted[perm] = permuted_labels
    # border points may legitimately attach to a different adjacent
    # cluster depending on visit order; compare on core points only
    core = core_point_mask(points, eps=eps, min_samples=k)
    if core.sum() >= 2:
        assert rand_index(labels[core], unpermuted[core]) == 1.0


@given(points=point_arrays)
@settings(max_examples=40, deadline=None)
def test_labels_are_contiguous_from_zero(points):
    labels = dbscan(points, eps=1.0, min_samples=3)
    positive = sorted(set(labels[labels >= 0].tolist()))
    assert positive == list(range(len(positive)))


@given(
    points=point_arrays,
    k=st.integers(min_value=2, max_value=5),
)
@settings(max_examples=40, deadline=None)
def test_monotone_in_eps(points, k):
    """Growing eps can only merge clusters, never orphan clustered points."""
    small = dbscan(points, eps=0.5, min_samples=k)
    large = dbscan(points, eps=2.0, min_samples=k)
    # any point clustered at small eps remains clustered at larger eps
    assert ((small >= 0) <= (large >= 0)).all()
