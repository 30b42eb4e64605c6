"""Test-only oracle: ``DBSCANCorrelator`` as it evaluated one window per call,
before ``correlate_many`` took a run's windows in one batch.

Since pairs are measured on lattice deltas (cell-centre pixels, layer
index) times the per-axis scale, the oracle measures them the same way:
its window keeps the lattice beside the mm points, and its ``dense_edges``
scales each broadcast difference before squaring. Apart from that
arithmetic, deliberately the shipped one, the code is as it was.

Kept verbatim: the correlator's ``__call__`` and ``_window_over`` (its own
window advance, conversion, labeller call and summary per trigger), the
window's ``append_layer`` (one pair block per layer) and the broadcast
``dense_edges`` it called (row blocks against all earlier columns). Since
the window keeps each point's degree beside its pairs, that
``append_layer`` also recounts the degrees from the whole pair list. The
batch is held to equal payloads *and* equal kept windows — points, pair
arrays in order, degrees, layer runs — not merely to the same clusters.
"""

from __future__ import annotations

from operator import is_
from typing import Any

import numpy as np

from repro.clustering import incremental, pair_degree, summarize_clusters
from repro.clustering.dbscan import Edges, _check_eps, _join
from repro.core.functions import DBSCANCorrelator
from repro.spe import StreamTuple

#: elements of the (rows, cols, d) difference tensor one dense block may hold
_BLOCK_ELEMS = 1 << 21


def dense_edges(points: np.ndarray, eps: float, scale: np.ndarray, start: int = 0) -> Edges:
    """Pairs within ``eps`` whose higher index is ``>= start``.

    Row block ``[s, e)`` is compared against columns ``[0, e)`` in one
    broadcast; blocks are sized so the difference tensor stays a few MB
    however many points there are. With ``start`` at the old point count
    this is the sliding window's increment: k new rows against n columns.
    """
    _check_eps(eps)
    n, dim = points.shape
    limit = eps * eps
    lows: list[np.ndarray] = []
    highs: list[np.ndarray] = []
    rows = max(1, _BLOCK_ELEMS // max(1, n * dim))
    s = start
    while s < n:
        e = min(n, s + rows)
        diffs = points[s:e, None, :] - points[None, :e, :]
        diffs *= scale
        row, col = np.nonzero(np.einsum("ijk,ijk->ij", diffs, diffs) <= limit)
        row += s
        below = col < row
        lows.append(col[below])
        highs.append(row[below])
        s = e
    return _join(lows, highs)


class LayerWindowClusterer(incremental.LayerWindowClusterer):
    """The shipped window class with its one-layer-at-a-time append."""

    def append_layer(self, layer: int, xy_points: np.ndarray) -> None:
        """Add one layer's points: one block of its k points against the
        n + k now in the window; pairs among older points are kept."""
        xy_points = np.asarray(xy_points, dtype=float).reshape(-1, 2)
        count = len(xy_points)
        self._layers.append((layer, count))
        if not count:
            return
        retained = len(self._points)
        z = np.full((count, 1), layer * self._thickness)
        xy_mm = xy_points / self._px_per_mm
        self._points = np.concatenate((self._points, np.hstack((xy_mm, z))))
        self._lattice = np.concatenate(
            (self._lattice, np.hstack((xy_points, np.full((count, 1), layer))))
        )
        self._point_layers = np.concatenate(
            (self._point_layers, np.full(count, layer, dtype=np.int64))
        )
        lo, hi = dense_edges(self._lattice, self._eps, self._scale, start=retained)
        self._lo = np.concatenate((self._lo, lo))
        self._hi = np.concatenate((self._hi, hi))
        self._degree = pair_degree(len(self._points), self._lo, self._hi)


class PerTriggerCorrelator(DBSCANCorrelator):
    """One window per call; constructor and image rendering are inherited."""

    #: no batch method: an operator calls the oracle once per window
    correlate_many = None

    def __call__(
        self, job: str, layer: int, specimen: str, events: list[StreamTuple]
    ) -> dict[str, Any]:
        if not events:
            self._windows.pop((job, specimen), None)
            return {"num_events": 0, "num_clusters": 0, "clusters": []}
        window = self._window_over((job, specimen), events)
        points = window.points
        labels = window.labels()
        summaries = summarize_clusters(
            points, labels, window.point_layers, self._cell_volume, self._min_volume
        )
        payload: dict[str, Any] = {
            "num_events": len(events),
            "num_clusters": len(summaries),
            "clusters": [s.__dict__ for s in summaries],
        }
        if self._render:
            payload["cluster_image"] = self._render_image(points, labels)
        return payload

    def _window_over(
        self, group: tuple[str, str], events: list[StreamTuple]
    ) -> LayerWindowClusterer:
        """The group's window, advanced to hold exactly ``events``."""
        window, held = self._windows.get(group) or (
            LayerWindowClusterer(
                None, self._eps, self._min_samples, self._thickness, px_per_mm=self._px_per_mm
            ),
            (),
        )
        # how many of the oldest layers must go for the window to start
        # at events[0]
        first = events[0]
        expired = start = 0
        for _, count in window.layer_counts:
            if held[start] is first:
                break
            expired += 1
            start += count
        retained = len(held) - start
        if retained <= len(events) and all(map(is_, held[start:], events)):
            window.expire_layers(expired)
        else:
            window.reset()
            retained = 0
        new = events[retained:]
        if new:
            layers = np.array([e.layer for e in new], dtype=np.int64)
            xy_px = np.array(
                [(e.payload["center_x_px"], e.payload["center_y_px"]) for e in new],
                dtype=float,
            )
            bounds = [0, *(np.flatnonzero(np.diff(layers)) + 1).tolist(), len(new)]
            for low, high in zip(bounds, bounds[1:]):
                window.append_layer(int(layers[low]), xy_px[low:high])
        self._windows[group] = (window, tuple(events))
        return window


def window_state(correlator: DBSCANCorrelator) -> dict:
    """Every kept window as comparable bytes: points, lattice, layers,
    pairs, degrees, runs."""
    return {
        group: (
            window.points.dtype.str,
            window.points.tobytes(),
            window._lattice.tobytes(),
            window.point_layers.tobytes(),
            window._lo.dtype.str,
            window._lo.tobytes(),
            window._hi.tobytes(),
            window._degree.tobytes(),
            window.layer_counts,
            len(held),
        )
        for group, (window, held) in correlator._windows.items()
    }
