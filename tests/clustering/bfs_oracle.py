"""Test-only oracle: the sequential seed-order BFS DBSCAN this repo shipped
before the neighbour-pair producers and the array-at-a-time labeller.

Kept verbatim (per-point grid index, dense matrix below the old cutoff,
naive scan, the ``absorb`` BFS) so the property suites can demand *equal*
labels, ids included, from ``repro.clustering`` — not merely the same
partition. ``loop_summaries`` is the mask-per-cluster summary loop that
``summarize_clusters`` replaced, kept for the same reason.

One change on purpose: ``bfs_dbscan`` takes the producers' optional
per-axis ``scale`` (points on a lattice, each difference scaled before it
is squared), so the window's lattice-delta distances have an oracle too.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

import numpy as np

NOISE = -1
UNVISITED = -2

#: below this size, a full pairwise neighbor matrix beats the grid index
DENSE_CUTOFF = 768


class GridIndex:
    """Uniform-grid spatial index supporting eps-neighborhood queries.

    All points sharing a grid cell also share their candidate set (the
    union of the 3^d adjacent buckets), so candidate arrays are built once
    per *cell* and cached — in the dense defect blobs this code clusters,
    that removes almost all per-point Python overhead.
    """

    def __init__(self, points: np.ndarray, eps: float, scale=None) -> None:
        if eps <= 0:
            raise ValueError("eps must be positive")
        points = np.asarray(points, dtype=float)
        if points.ndim != 2:
            raise ValueError("points must be a (n, d) array")
        self._points = points
        self._eps = eps
        self._scale = scale
        self._buckets: dict[tuple[int, ...], list[int]] = {}
        self._point_cells: list[tuple[int, ...]] = []
        if len(points):
            edge = eps if scale is None else eps / np.asarray(scale) * (1 + 1e-9)
            cells = np.floor(points / edge).astype(np.int64)
            self._point_cells = list(map(tuple, cells))
            for index, cell in enumerate(self._point_cells):
                self._buckets.setdefault(cell, []).append(index)
        self._dim = points.shape[1]
        # Pre-compute neighbor cell offsets (3^d patterns).
        self._offsets = _neighbor_offsets(self._dim)
        self._candidate_cache: dict[tuple[int, ...], np.ndarray] = {}

    def _candidates_for_cell(self, cell: tuple[int, ...]) -> np.ndarray:
        cached = self._candidate_cache.get(cell)
        if cached is not None:
            return cached
        candidates: list[int] = []
        for offset in self._offsets:
            bucket = self._buckets.get(tuple(c + o for c, o in zip(cell, offset)))
            if bucket:
                candidates.extend(bucket)
        result = np.asarray(candidates, dtype=np.int64)
        self._candidate_cache[cell] = result
        return result

    def neighbors(self, index: int) -> np.ndarray:
        """Indices of all points within eps of point ``index`` (inclusive)."""
        cand = self._candidates_for_cell(self._point_cells[index])
        if len(cand) == 0:
            return cand
        diffs = self._points[cand] - self._points[index]
        if self._scale is not None:
            diffs *= self._scale
        mask = np.einsum("ij,ij->i", diffs, diffs) <= self._eps * self._eps
        return cand[mask]


def _neighbor_offsets(dim: int) -> list[tuple[int, ...]]:
    if dim == 0:
        return []
    offsets: list[tuple[int, ...]] = [()]
    for _ in range(dim):
        offsets = [prev + (delta,) for prev in offsets for delta in (-1, 0, 1)]
    return offsets


def _naive_neighbors(points: np.ndarray, index: int, eps: float, scale) -> np.ndarray:
    diffs = points - points[index]
    if scale is not None:
        diffs *= scale
    mask = np.einsum("ij,ij->i", diffs, diffs) <= eps * eps
    return np.nonzero(mask)[0]


def bfs_dbscan(
    points: np.ndarray | Iterable[Iterable[float]],
    eps: float,
    min_samples: int,
    use_grid: bool = True,
    scale=None,
) -> np.ndarray:
    """Cluster ``points``; returns an (n,) label array (noise = -1).

    ``min_samples`` counts the point itself, matching the common
    convention: a point is *core* when its eps-neighborhood (inclusive)
    holds at least ``min_samples`` points.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points.reshape(-1, 1)
    n = len(points)
    labels = np.full(n, UNVISITED, dtype=np.int64)
    if n == 0:
        return labels
    if min_samples < 1:
        raise ValueError("min_samples must be >= 1")
    if eps <= 0:
        raise ValueError("eps must be positive")

    if use_grid and n <= DENSE_CUTOFF:
        # Array-at-a-time fast path: one broadcast yields every
        # eps-neighborhood at once. Same subtract-square-sum arithmetic as
        # the per-point searches, so the masks are bit-identical.
        diffs = points[:, None, :] - points[None, :, :]
        if scale is not None:
            diffs *= scale
        within = np.einsum("ijk,ijk->ij", diffs, diffs) <= eps * eps
        # one nonzero over the whole matrix, split into per-row views
        # (every row is non-empty: a point neighbors itself)
        i_idx, j_idx = np.nonzero(within)
        counts = np.bincount(i_idx, minlength=n)
        rows = np.split(j_idx, np.cumsum(counts)[:-1])
        neighbors = rows.__getitem__
    elif use_grid:
        index = GridIndex(points, eps, scale)
        neighbors = index.neighbors
    else:
        neighbors = lambda i: _naive_neighbors(points, i, eps, scale)  # noqa: E731

    def absorb(found: np.ndarray, cluster: int, queue: deque) -> None:
        """Claim unvisited/noise neighbors for ``cluster``.

        Only previously-unvisited points are queued for expansion: a point
        already marked NOISE had its neighborhood computed and is known
        non-core, so it joins as a border point without re-expansion.
        """
        found_labels = labels[found]
        unvisited = found[found_labels == UNVISITED]
        noise = found[found_labels == NOISE]
        labels[noise] = cluster
        labels[unvisited] = cluster
        queue.extend(unvisited.tolist())

    cluster = 0
    for seed in range(n):
        if labels[seed] != UNVISITED:
            continue
        seed_neighbors = neighbors(seed)
        if len(seed_neighbors) < min_samples:
            labels[seed] = NOISE
            continue
        # Grow a new cluster from this core point (BFS over core points).
        labels[seed] = cluster
        queue: deque[int] = deque()
        absorb(seed_neighbors, cluster, queue)
        while queue:
            current = queue.popleft()
            current_neighbors = neighbors(current)
            if len(current_neighbors) < min_samples:
                continue  # border point: belongs to the cluster, does not expand it
            absorb(current_neighbors, cluster, queue)
        cluster += 1
    return labels


def loop_summaries(points, labels, point_layers, cell_volume_mm3, min_volume_mm3=0.0):
    """One boolean mask per cluster; returns plain tuples for comparison."""
    summaries = []
    for cluster_id in sorted(int(c) for c in np.unique(labels) if c >= 0):
        mask = labels == cluster_id
        members = points[mask]
        layer_span = point_layers[mask]
        volume = float(mask.sum()) * cell_volume_mm3
        if volume < min_volume_mm3:
            continue
        summaries.append(
            (
                cluster_id,
                int(mask.sum()),
                tuple(float(v) for v in members.mean(axis=0)),
                tuple(float(v) for v in members.min(axis=0)),
                tuple(float(v) for v in members.max(axis=0)),
                (int(layer_span.min()), int(layer_span.max())),
                volume,
            )
        )
    return summaries
