"""The labeller against the one it replaced, on windows driven at random.

``label_edges`` hooks the first pair of every ``hi`` run in its first round
and takes each point's degree from the window, which keeps it beside its
pairs. Both lean on invariants the window must hold after any sequence of
``append_layer`` / ``append_many`` / ``expire_layers`` / ``restore_state``:
its pairs strictly ascending in ``(hi, lo)``, and its degree equal to a
recount. Under them the labels must equal, ids included, both the labeller
kept verbatim in ``label_oracle`` and the sequential BFS of ``bfs_oracle``.

Layers are drawn from a half-unit lattice (duplicates, distances exactly
``eps``, border points at higher ``min_samples``) and from runs of points
0.5 apart in shuffled order, whose components need more than one hook
round, so the ``np.minimum.at`` fallback runs.
"""

from __future__ import annotations

import importlib

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.clustering import LayerWindowClusterer, dense_edges, label_edges, pair_degree

from . import label_oracle
from .bfs_oracle import bfs_dbscan

dbscan_module = importlib.import_module("repro.clustering.dbscan")

half = st.integers(0, 12)

lattice_xy = st.lists(st.tuples(half, half), max_size=12).map(
    lambda pts: np.array(pts, dtype=float).reshape(-1, 2) / 2.0
)


def along_x(order, x, y):
    """Points 0.5 apart along x from (x, y), the i-th at step ``order[i]``."""
    steps = np.array(order, dtype=float)
    return np.column_stack(((steps + x) / 2.0, np.full(len(steps), y / 2.0)))


#: points 0.5 apart along x, in shuffled index order
zigzag_xy = st.builds(
    along_x, st.integers(3, 10).flatmap(lambda k: st.permutations(range(k))), half, half
)

layer_xy = st.one_of(lattice_xy, zigzag_xy)

#: one step of the walk over two windows
operation = st.one_of(
    # append_layer(layer, xy) on one window; the layer index moves by -2..3
    st.tuples(st.just("layer"), st.integers(0, 1), st.integers(-2, 3), layer_xy),
    # append_many over both windows: per window, layer steps >= 0 and points
    st.tuples(
        st.just("many"),
        st.lists(st.tuples(st.integers(0, 2), layer_xy), max_size=3),
        st.lists(st.tuples(st.integers(0, 2), layer_xy), max_size=3),
    ),
    st.tuples(st.just("expire"), st.integers(0, 1), st.integers(0, 3)),
    st.tuples(st.just("restore"), st.integers(0, 1)),
)

walks = st.fixed_dictionaries(
    {
        "operations": st.lists(operation, min_size=1, max_size=10),
        "eps": st.sampled_from([0.5, 1.0, 1.5]),
        "min_samples": st.integers(1, 6),
        "thickness": st.sampled_from([0.04, 0.5, 1.0]),
    }
)


def walk(operations, eps, min_samples, thickness):
    """Drive two windows through ``operations``; after each step yield
    every window with the ``(layer, xy)`` runs it must hold."""

    def make():
        return LayerWindowClusterer(None, eps, min_samples, thickness)

    windows = [make(), make()]
    runs: list[list[tuple[int, np.ndarray]]] = [[], []]
    cursor = [3, 3]
    for step in operations:
        kind = step[0]
        if kind == "layer":
            _, w, move, xy = step
            cursor[w] += move
            windows[w].append_layer(cursor[w], xy)
            runs[w].append((cursor[w], xy))
        elif kind == "many":
            layers, points, counts = [], [], []
            for w, chunks in enumerate(step[1:]):
                new: list[tuple[int, np.ndarray]] = []
                for move, xy in chunks:
                    cursor[w] += move
                    if not len(xy):
                        continue
                    if new and new[-1][0] == cursor[w]:
                        new[-1] = (cursor[w], np.vstack((new[-1][1], xy)))
                    else:
                        new.append((cursor[w], xy))
                runs[w].extend(new)
                layers += [np.full(len(xy), layer, dtype=np.int64) for layer, xy in new]
                points += [xy for _, xy in new]
                counts.append(sum(len(xy) for _, xy in new))
            LayerWindowClusterer.append_many(
                windows,
                np.concatenate(layers) if layers else np.empty(0, dtype=np.int64),
                np.vstack(points) if points else np.empty((0, 2)),
                counts,
            )
        elif kind == "expire":
            _, w, count = step
            count = min(count, len(runs[w]))
            windows[w].expire_layers(count)
            del runs[w][:count]
        else:
            _, w = step
            state = windows[w].snapshot_state()
            windows[w] = make()
            windows[w].restore_state(state)
        yield from zip(windows, runs)


def stack(runs, thickness):
    """The runs' points with z = layer x ``thickness`` (1: the lattice)."""
    blocks = [np.column_stack((xy, np.full(len(xy), layer * thickness))) for layer, xy in runs]
    return np.vstack(blocks) if blocks else np.empty((0, 3))


@given(walks)
@settings(max_examples=150, deadline=None)
def test_window_labels_equal_the_replaced_labeller_and_the_bfs(drawn):
    eps, min_samples = drawn["eps"], drawn["min_samples"]
    for window, runs in walk(**drawn):
        points = stack(runs, drawn["thickness"])
        assert np.array_equal(window.points, points)
        assert window.layer_counts == [(layer, len(xy)) for layer, xy in runs]
        labels = window.labels()
        assert np.array_equal(
            labels,
            label_oracle.label_edges(len(points), window._lo, window._hi, min_samples),
        )
        scale = (1.0, 1.0, drawn["thickness"])
        assert np.array_equal(
            labels, bfs_dbscan(stack(runs, 1), eps, min_samples, scale=scale)
        )


@given(walks)
@settings(max_examples=100, deadline=None)
def test_window_pairs_stay_strictly_ascending_in_hi_then_lo(drawn):
    for window, _ in walk(**drawn):
        lo, hi = window._lo, window._hi
        assert (lo < hi).all()
        assert (np.diff(hi) >= 0).all()
        assert (np.diff(lo)[np.diff(hi) == 0] > 0).all()


@given(walks)
@settings(max_examples=100, deadline=None)
def test_kept_degree_equals_a_recount_of_the_pairs(drawn):
    for window, _ in walk(**drawn):
        n = len(window.points)
        assert window._degree.dtype == np.int64
        assert np.array_equal(
            window._degree,
            np.bincount(window._lo, minlength=n) + np.bincount(window._hi, minlength=n),
        )


def test_a_scripted_walk_reaches_every_labeller_path(monkeypatch):
    """The cases the random walks are drawn to reach, each made sure of:
    a component that needs a fallback hook round, with every pair core-core
    and beside border points, duplicates, a window of noise only, and an
    empty window."""
    rounds: list[int] = []
    flatten = dbscan_module._flatten

    def counted(root):
        rounds.append(1)
        return flatten(root)

    monkeypatch.setattr(dbscan_module, "_flatten", counted)
    eps, min_samples, thickness = 0.5, 3, 1.0

    def check(clusterer):
        rounds.clear()
        labels = clusterer.labels()
        points, n = clusterer.points, len(clusterer.points)
        assert np.array_equal(
            labels, label_oracle.label_edges(n, clusterer._lo, clusterer._hi, min_samples)
        )
        assert np.array_equal(labels, bfs_dbscan(points, eps, min_samples))
        return labels.tolist(), len(rounds)

    # every position doubled, positions in the order x = 0, 1.0, 0.5: the
    # first round hooks 1.0's points only to each other, a second links them
    zigzag = np.repeat([(0.0, 0.0), (1.0, 0.0), (0.5, 0.0)], 2, axis=0)
    # the middle point is core, the two ends are its border
    row = np.array([(0.0, 5.0), (0.5, 5.0), (1.0, 5.0)])
    window = LayerWindowClusterer(None, eps, min_samples, thickness)
    window.append_layer(0, zigzag)
    assert (window._degree + 1 >= min_samples).all()  # every pair core-core
    assert check(window) == ([0] * 6, 2)
    other = LayerWindowClusterer(None, eps, min_samples, thickness)
    sparse = LayerWindowClusterer(None, eps, min_samples, thickness)
    LayerWindowClusterer.append_many(
        [window, other, sparse],
        np.array([1, 1, 1, 4, 4, 4, 2, 2]),
        np.vstack((row, row, row[:2])),
        [3, 3, 2],
    )
    assert (window._degree[6:] + 1 < min_samples).tolist() == [True, False, True]
    assert check(window) == ([0] * 6 + [1] * 3, 2)
    assert check(other)[0] == [0, 0, 0]
    assert sparse._degree.tolist() == [1, 1]
    assert check(sparse)[0] == [-1, -1]
    state = window.snapshot_state()
    window = LayerWindowClusterer(None, eps, min_samples, thickness)
    window.restore_state(state)
    assert check(window)[0] == [0] * 6 + [1] * 3
    window.expire_layers(2)
    assert len(window.points) == 0
    assert check(window)[0] == []
    window.append_layer(5, np.empty((0, 2)))
    assert check(window)[0] == []


def chain(n):
    return np.column_stack((np.arange(n) * 0.5, np.zeros(n)))


def test_label_edges_refuses_core_pairs_out_of_order():
    lo, hi = dense_edges(chain(6), 0.5)
    degree = pair_degree(6, lo, hi)
    assert label_edges(degree, lo, hi, 2).tolist() == [0] * 6
    rng = np.random.default_rng(0)
    for order in (np.arange(len(lo))[::-1], rng.permutation(len(lo))):
        with pytest.raises(ValueError, match=r"\(hi, lo\)"):
            label_edges(degree, lo[order], hi[order], 2)
    # a pair given twice is out of order as well
    twice = np.repeat(np.arange(len(lo)), 2)
    with pytest.raises(ValueError):
        label_edges(pair_degree(6, lo[twice], hi[twice]), lo[twice], hi[twice], 2)


def test_label_edges_takes_its_point_count_from_the_degree():
    lo, hi = dense_edges(chain(4), 0.5)
    assert label_edges(np.zeros(0, dtype=np.int64), lo[:0], hi[:0], 1).tolist() == []
    # two trailing points without pairs: noise at min_samples 2, clusters at 1
    degree = pair_degree(6, lo, hi)
    assert label_edges(degree, lo, hi, 2).tolist() == [0, 0, 0, 0, -1, -1]
    assert label_edges(degree, lo, hi, 1).tolist() == [0, 0, 0, 0, 1, 2]
