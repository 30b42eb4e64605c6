"""Cross-layer cluster correlation (the `correlateEvents` engine).

The paper's Event Aggregator clusters thermal-anomaly events *within and
across layers*: each new layer's events are clustered together with the
events of the previous ``L`` layers, so a defect growing through the build
height shows up as one three-dimensional cluster (parameter ``L`` bounds
how many layers a cluster can expand through — Figure 6 sweeps it).

:class:`LayerWindowClusterer` owns that window. Consecutive windows share
all but one layer, so it keeps the window's points, *their eps-neighbour
pairs* and each point's degree from call to call: a new layer costs its k
points against the n before them (and several windows advance in one such
pair pass, :meth:`LayerWindowClusterer.append_many`) plus a count of the
new pairs' ends, an expired layer is a prefix drop plus an index shift of
the pair list and a count of the dropped pairs' ends, and every evaluation
is one run of the array-at-a-time labeller over the pairs and the kept
degree. Pairs stay strictly ascending in ``(hi, lo)``, the order the
labeller requires: an append only adds pairs whose ``hi`` is new, an
expiry only filters. The result is
by construction "DBSCAN over the last L layers" — the pairs are the ones a
from-scratch run would find (same arithmetic) and the labeller is the one
``dbscan()`` uses.

Points are 3-D: (x_mm, y_mm, z_mm), where z encodes the layer index times
the layer thickness, so ``eps`` has one spatial meaning in-plane and
across layers. Pairs are not measured on those mm points, though: the
window also keeps each point on its lattice (cell centre in pixels, layer
index) and measures the lattice deltas times the per-axis scale (mm per
pixel, layer thickness), so a verdict never depends on how high in the
build its layers are (see :mod:`repro.clustering.dbscan`).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .dbscan import dense_edges, label_edges, pair_degree


@dataclass(frozen=True)
class ClusterSummary:
    """One cluster of anomalous cells, as reported to the expert."""

    cluster_id: int
    size: int
    centroid: tuple[float, ...]
    bbox_min: tuple[float, ...]
    bbox_max: tuple[float, ...]
    layers: tuple[int, int]  # (first layer, last layer) the cluster spans
    volume_mm3: float


@dataclass
class ClusteringResult:
    """Labels plus per-cluster summaries for one window evaluation."""

    labels: np.ndarray
    points: np.ndarray
    point_layers: np.ndarray
    summaries: list[ClusterSummary] = field(default_factory=list)

    @property
    def num_clusters(self) -> int:
        valid = self.labels[self.labels >= 0]
        return int(len(np.unique(valid))) if len(valid) else 0

    @property
    def noise_count(self) -> int:
        return int((self.labels < 0).sum())


def summarize_clusters(
    points: np.ndarray,
    labels: np.ndarray,
    point_layers: np.ndarray,
    cell_volume_mm3: float,
    min_volume_mm3: float = 0.0,
) -> list[ClusterSummary]:
    """Build per-cluster reports, dropping clusters below ``min_volume_mm3``.

    The use case reports anomalous regions only "when bigger than a certain
    volume" (§5); volume is estimated as cell count x per-cell volume.
    """
    members = np.nonzero(labels >= 0)[0]
    if not len(members):
        return []
    # One stable sort groups the clustered points by label; extrema come
    # from reduceat over the groups. Coordinate sums use bincount, which
    # adds in point order — the same floats, to the bit, as summing each
    # cluster's rows on their own (add.reduceat pairs differently).
    member_labels = labels[members]
    order = members[np.argsort(member_labels, kind="stable")]
    grouped = labels[order]
    starts = np.nonzero(np.diff(grouped, prepend=-1))[0]
    cluster_ids = grouped[starts]
    sizes = np.bincount(member_labels)[cluster_ids]
    member_points = points[members]
    sums = np.stack(
        [
            np.bincount(member_labels, weights=member_points[:, axis])[cluster_ids]
            for axis in range(points.shape[1])
        ],
        axis=1,
    )
    centroids = (sums / sizes[:, None]).tolist()
    grouped_points = points[order]
    bbox_min = np.minimum.reduceat(grouped_points, starts, axis=0).tolist()
    bbox_max = np.maximum.reduceat(grouped_points, starts, axis=0).tolist()
    grouped_layers = point_layers[order]
    first_layer = np.minimum.reduceat(grouped_layers, starts).tolist()
    last_layer = np.maximum.reduceat(grouped_layers, starts).tolist()
    summaries: list[ClusterSummary] = []
    for index, (cluster_id, size) in enumerate(zip(cluster_ids.tolist(), sizes.tolist())):
        volume = float(size) * cell_volume_mm3
        if volume < min_volume_mm3:
            continue
        summaries.append(
            ClusterSummary(
                cluster_id=cluster_id,
                size=size,
                centroid=tuple(centroids[index]),
                bbox_min=tuple(bbox_min[index]),
                bbox_max=tuple(bbox_max[index]),
                layers=(first_layer[index], last_layer[index]),
                volume_mm3=volume,
            )
        )
    return summaries


class LayerWindowClusterer:
    """The sliding window of event points and its eps-neighbour graph.

    :meth:`observe_layer` is the paper's ``correlateEvents(L, DBSCAN)`` in
    one call: append a completed layer, retire what falls out of the last
    ``window_layers`` observed layers, cluster. A layer's ``xy_points`` are
    on the sensor's pixel lattice and ``px_per_mm`` turns them into plate
    mm (the default 1.0 takes them as mm already). A caller that is *told*
    its window (``DBSCANCorrelator`` gets it from the operator) uses the
    steps underneath, :meth:`expire_layers` and :meth:`append_layer` (or
    :meth:`append_many` for several windows), and :attr:`layer_counts` to
    see what the window holds; for it
    ``window_layers`` may be ``None`` (``observe_layer`` then never
    retires anything).
    """

    def __init__(
        self,
        window_layers: int | None,
        eps: float,
        min_samples: int,
        layer_thickness_mm: float,
        cell_volume_mm3: float = 1.0,
        min_volume_mm3: float = 0.0,
        px_per_mm: float = 1.0,
    ) -> None:
        if window_layers is not None and window_layers < 1:
            raise ValueError("window must cover at least one layer")
        self._window_layers = window_layers
        self._eps = eps
        self._min_samples = min_samples
        self._thickness = layer_thickness_mm
        self._px_per_mm = px_per_mm
        # mm per lattice unit: per pixel in-plane, per layer across layers
        self._scale = np.array([1 / px_per_mm, 1 / px_per_mm, layer_thickness_mm])
        self._cell_volume = cell_volume_mm3
        self._min_volume = min_volume_mm3
        self.reset()

    @property
    def window_layers(self) -> int | None:
        return self._window_layers

    @property
    def layer_counts(self) -> list[tuple[int, int]]:
        """(layer index, point count) of every retained layer, oldest first."""
        return list(self._layers)

    @property
    def points(self) -> np.ndarray:
        """(n, 3) window points, oldest layer first; never written in place."""
        return self._points

    @property
    def point_layers(self) -> np.ndarray:
        return self._point_layers

    def reset(self) -> None:
        """Empty the window."""
        self._layers: deque[tuple[int, int]] = deque()
        self._points = np.empty((0, 3))
        # the same points on the lattice: (x_px, y_px, layer)
        self._lattice = np.empty((0, 3))
        self._point_layers = np.empty(0, dtype=np.int64)
        # eps-neighbour pairs of the window's points, lo < hi, ascending
        # in (hi, lo), and each point's count of them
        self._lo = np.empty(0, dtype=np.int64)
        self._hi = np.empty(0, dtype=np.int64)
        self._degree = np.empty(0, dtype=np.int64)

    def expire_layers(self, count: int) -> None:
        """Retire the ``count`` oldest layers: a prefix drop of the points
        and an index shift of the pairs that survive; a survivor's degree
        loses the pairs it shared with the dropped points."""
        drop = sum(self._layers.popleft()[1] for _ in range(count))
        if drop:
            kept = self._lo >= drop  # lo < hi: a pair lives as long as its lo
            if np.count_nonzero(kept) < len(kept):
                # a dropped pair's lo goes with it; its hi loses a neighbour
                lost = np.bincount(self._hi[~kept], minlength=len(self._degree))
                self._degree = self._degree - lost
                self._lo, self._hi = self._lo[kept], self._hi[kept]
            self._degree = self._degree[drop:]
            self._lo = self._lo - drop
            self._hi = self._hi - drop
            self._points = self._points[drop:]
            self._lattice = self._lattice[drop:]
            self._point_layers = self._point_layers[drop:]

    def append_layer(self, layer: int, xy_points: np.ndarray) -> None:
        """Add one layer's points: its k points against the n before them;
        pairs among older points are kept."""
        xy_points = np.asarray(xy_points, dtype=float).reshape(-1, 2)
        count = len(xy_points)
        if not count:
            self._layers.append((layer, 0))
            return
        self.append_many([self], np.full(count, layer, dtype=np.int64), xy_points, [count])

    @staticmethod
    def append_many(
        windows: Sequence[LayerWindowClusterer],
        layers: np.ndarray,
        xy_points: np.ndarray,
        counts: Sequence[int],
    ) -> None:
        """Append new points to several windows with one pair pass.

        ``layers`` / ``xy_points`` hold the new points of every window back
        to back, ``counts[w]`` of them for ``windows[w]``, each window's in
        ascending layer order; the windows share ``eps`` and the scale.
        Each window ends as :meth:`append_layer` per layer run would leave
        it — the same points, runs, pairs in the same order and degrees:
        the windows are laid back to back as segments of one
        :func:`dense_edges` call, new rows against the earlier rows of
        their own window, and one :func:`pair_degree` over that call's
        pairs, with the windows' old degrees added in one scatter, gives
        every window its degree.
        """
        head = windows[0]
        new_points = np.column_stack((xy_points / head._px_per_mm, layers * head._thickness))
        new_lattice = np.column_stack((xy_points, layers))
        counts = np.asarray(counts, dtype=np.int64)
        offsets = np.cumsum(counts) - counts
        # a layer run starts where the layer changes or a window's points
        # begin
        opens = np.diff(layers, prepend=layers[:1] - 1) != 0
        opens[offsets[counts > 0]] = True
        bounds = np.flatnonzero(opens)
        run_layers = layers[bounds].tolist()
        run_counts = np.diff(bounds, append=len(layers)).tolist()
        run_cuts = np.searchsorted(bounds, offsets + counts).tolist()
        retained = np.array([len(window._points) for window in windows], dtype=np.int64)
        for window, offset, count in zip(windows, offsets.tolist(), counts.tolist()):
            window._points = np.concatenate(
                (window._points, new_points[offset : offset + count])
            )
            window._lattice = np.concatenate(
                (window._lattice, new_lattice[offset : offset + count])
            )
            window._point_layers = np.concatenate(
                (window._point_layers, layers[offset : offset + count])
            )
        sizes = retained + counts
        ends = np.cumsum(sizes)
        firsts = ends - sizes
        lo, hi = dense_edges(
            np.concatenate([window._lattice for window in windows]),
            head._eps,
            start=firsts + retained,
            stop=ends,
            first=firsts,
            scale=head._scale,
        )
        pair_cuts = np.searchsorted(hi, ends).tolist()
        # the new pairs' counts, plus each window's old degree at the rows
        # its retained points hold in the concatenation
        old = np.concatenate([window._degree for window in windows])
        degree = pair_degree(int(ends[-1]), lo, hi)
        degree[np.arange(len(old)) + np.repeat(offsets, retained)] += old
        run_start = pair_start = 0
        for window, first, end, run_end, pair_end in zip(
            windows, firsts.tolist(), ends.tolist(), run_cuts, pair_cuts
        ):
            window._layers.extend(
                zip(run_layers[run_start:run_end], run_counts[run_start:run_end])
            )
            window._degree = degree[first:end]
            window._lo = np.concatenate((window._lo, lo[pair_start:pair_end] - first))
            window._hi = np.concatenate((window._hi, hi[pair_start:pair_end] - first))
            run_start, pair_start = run_end, pair_end

    def labels(self) -> np.ndarray:
        """DBSCAN labels of the window's points (noise = -1)."""
        return label_edges(self._degree, self._lo, self._hi, self._min_samples)

    def cluster(self) -> ClusteringResult:
        """Labels and per-cluster summaries of the current window."""
        labels = self.labels()
        summaries = summarize_clusters(
            self._points, labels, self._point_layers, self._cell_volume, self._min_volume
        )
        return ClusteringResult(labels, self._points, self._point_layers, summaries)

    def observe_layer(self, layer: int, xy_points: np.ndarray) -> ClusteringResult:
        """Add one completed layer's event points and cluster the window."""
        if self._window_layers is not None:
            self.expire_layers(max(0, len(self._layers) + 1 - self._window_layers))
        self.append_layer(layer, xy_points)
        return self.cluster()

    def snapshot_state(self) -> dict[str, object]:
        """Checkpointable window contents (the L retained layers)."""
        layers = []
        start = 0
        for layer, count in self._layers:
            layers.append((layer, self._lattice[start : start + count, :2].copy()))
            start += count
        return {"layers": layers}

    def restore_state(self, state: dict[str, object]) -> None:
        """Refill the window layer by layer: the pairs and degrees are
        recomputed from the restored points, the same way they were first
        found, never read from the snapshot."""
        self.reset()
        for layer, xy_points in state["layers"]:
            self.append_layer(int(layer), xy_points)
