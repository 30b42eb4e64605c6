"""DBSCAN — Density-Based Spatial Clustering of Applications with Noise.

From-scratch implementation of Ester et al. (KDD-96), the clustering
method the paper's use case plugs into ``correlateEvents``: it needs no
pre-declared cluster count and finds clusters of arbitrary shape — the
properties §5 cites for preferring it over k-means.

The work is split in two. *Edge producers* turn points into the list of
unordered pairs ``(lo, hi)``, ``lo < hi``, that lie within ``eps`` of each
other (a point is its own neighbour implicitly):

* :func:`dense_edges` — every row against the rows before it, candidate
  pairs laid out flat and tested a few thousand at a time; the right
  tool up to :data:`DENSE_CUTOFF` points, and the one the sliding windows
  use for "new rows against everything" (``start``), for one window or
  for many laid back to back (segments);
* :func:`grid_edges` — a uniform grid with bucket edge ``eps``: every
  neighbour of a point lies in the 3^d adjacent buckets, so candidates
  are enumerated per *pair of adjacent buckets*, all buckets at once;
* :func:`naive_edges` — one full scan per point, kept for the ablation
  benchmark (A3) and as a cross-check in tests.

All three use the same subtract-scale-square-sum arithmetic, so they
agree to the bit on which pairs are within ``eps``, and all three return
each pair once, strictly ascending in ``(hi, lo)``, the order the
labeller's first hook round relies on. Each takes an optional per-axis
``scale``: the points are then lattice coordinates (a cell centre in
pixels, a layer index) and a pair's distance is that of its lattice
deltas times the scale (mm per pixel, layer thickness). The delta of two
lattice points is exact, so whether a pair is within ``eps`` depends on
how far apart the points are, never on where they are: a window of
layers has the same pairs at every height of the build.

One *labeller*, :func:`label_edges`, turns an edge list and each point's
degree (:func:`pair_degree`) into labels without visiting points one by
one: the degree gives the core mask, the core graph's connected
components are found by min-label hooking and pointer jumping, clusters
are numbered by their lowest core index, and a border point takes the
lowest cluster id among its core neighbours. In the first hook round each
point hooks under its lowest lower neighbour, which the ``(hi, lo)`` order
puts first in its run of pairs, so that round is one assignment with
unique indices; only the later rounds a chain with zig-zagging indices
needs scatter with ``np.minimum.at``. The labels are what the textbook
seed-order BFS produces (a cluster is born at its lowest
unvisited core point and is grown to completion before the next one
starts, so an earlier cluster always claims a shared border point first),
hence the labels are identical to it, ids included.

Labels follow scikit-learn conventions: cluster ids are 0..k-1 and noise
is ``-1``.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

NOISE = -1

#: up to this many points one all-pairs block beats sorting into buckets
#: (measured crossover 160-224 points, sparse blobs to packed lattice; E17)
DENSE_CUTOFF = 192

#: differences one dense pass may hold (candidate pairs x d): past a few
#: thousand pairs the pass's temporaries leave cache and every fresh
#: array page-faults, so a pass is cut well below that
_BLOCK_ELEMS = 1 << 13
#: candidate pairs the grid producer tests in one pass
_PAIR_CHUNK = 1 << 18

Edges = tuple[np.ndarray, np.ndarray]


def _join(lows: list[np.ndarray], highs: list[np.ndarray]) -> Edges:
    if len(lows) == 1:
        return lows[0], highs[0]
    if not lows:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(lows), np.concatenate(highs)


def _as_points(points: np.ndarray | Iterable[Iterable[float]]) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points.reshape(-1, 1)
    if points.ndim != 2:
        raise ValueError("points must be a (n, d) array")
    return points


def _check_eps(eps: float) -> None:
    if eps <= 0:
        raise ValueError("eps must be positive")


def _factors(scale: np.ndarray | None, rows: int) -> np.ndarray | None:
    """The per-axis ``scale`` repeated for ``rows`` rows of differences,
    flat (``None``: unscaled)."""
    return None if scale is None else np.tile(np.asarray(scale, dtype=float), rows)


def _near(diffs: np.ndarray, factors: np.ndarray | None, limit: float) -> np.ndarray:
    """Which rows of ``diffs`` (point deltas, scaled in place by the
    :func:`_factors` of at least as many rows) are within ``sqrt(limit)``.

    The scale is one flat multiply: broadcasting a 3-wide row over the
    differences runs an inner loop per row and costs several times more.
    """
    if factors is not None:
        flat = diffs.reshape(-1)
        flat *= factors[: len(flat)]
    return np.einsum("ij,ij->i", diffs, diffs) <= limit


# -- edge producers ------------------------------------------------------------


def dense_edges(
    points: np.ndarray,
    eps: float,
    start: int | np.ndarray = 0,
    stop: int | np.ndarray | None = None,
    first: int | np.ndarray = 0,
    scale: np.ndarray | None = None,
) -> Edges:
    """Pairs within ``eps`` whose higher index is ``>= start``.

    Every row of ``[start, stop)`` (``stop`` defaults to all points) is
    tested against each row of ``[first, row)``. With ``start`` at the old
    point count this is the sliding window's increment: k new rows
    against the n before them. ``start``, ``stop`` and ``first`` may also
    be arrays with one entry per *segment*: windows laid back to back are
    segments, and one call finds each window's new pairs and none across
    windows.

    Pairs come out segment by segment, row by row, lower index ascending.
    The candidate pairs of consecutive rows are laid out as one flat array
    and tested in one pass; a pass holds at most :data:`_BLOCK_ELEMS`
    differences, which keeps its temporaries in cache. With ``scale`` the
    points are lattice coordinates (see the module docstring).
    """
    _check_eps(eps)
    n, dim = points.shape
    starts = np.atleast_1d(np.asarray(start, dtype=np.int64))
    sizes = np.atleast_1d(np.asarray(n if stop is None else stop, dtype=np.int64)) - starts
    ends = np.cumsum(sizes)
    rows = np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - (ends - sizes), sizes)
    lefts = np.repeat(np.broadcast_to(np.asarray(first, dtype=np.int64), sizes.shape), sizes)
    widths = rows - lefts
    done = np.cumsum(widths)  # candidates up to and including each row
    budget = max(1, _BLOCK_ELEMS // max(1, dim))
    # a pass holds at most a budget's candidates, or one wider row's
    total = int(done[-1]) if len(done) else 0
    factors = _factors(scale, min(total, max(budget, int(widths.max(initial=0)))))
    limit = eps * eps
    lows: list[np.ndarray] = []
    highs: list[np.ndarray] = []
    begin = 0
    while begin < len(rows):
        before = done[begin] - widths[begin]
        end = max(begin + 1, int(np.searchsorted(done, before + budget, side="right")))
        width = widths[begin:end]
        high = np.repeat(rows[begin:end], width)
        low = np.arange(done[end - 1] - before) + np.repeat(
            lefts[begin:end] - (done[begin:end] - width - before), width
        )
        diffs = points.take(high, axis=0)
        diffs -= points.take(low, axis=0)
        near = _near(diffs, factors, limit)
        lows.append(low[near])
        highs.append(high[near])
        begin = end
    return _join(lows, highs)


def naive_edges(points: np.ndarray, eps: float, scale: np.ndarray | None = None) -> Edges:
    """One scan of all points per point (the O(n^2) reference search)."""
    _check_eps(eps)
    factors = _factors(scale, len(points))
    limit = eps * eps
    lows: list[np.ndarray] = []
    highs: list[np.ndarray] = []
    for index in range(len(points)):
        diffs = points[:index] - points[index]
        found = np.nonzero(_near(diffs, factors, limit))[0]
        lows.append(found)
        highs.append(np.full(len(found), index, dtype=np.int64))
    return _join(lows, highs)


def _forward_offsets(dim: int) -> np.ndarray:
    """Half of the 3^d bucket offsets: the lexicographically positive ones.

    A pair of adjacent buckets is enumerated once, from its lower member.
    """
    offsets = np.stack(
        np.meshgrid(*[np.arange(-1, 2)] * dim, indexing="ij"), axis=-1
    ).reshape(-1, dim)
    return offsets[len(offsets) // 2 + 1 :]


def _bucket_keys(
    points: np.ndarray, eps: float, scale: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray] | None:
    """Per-point integer bucket key and the key stride of each axis.

    A bucket spans ``eps`` (``eps / scale`` lattice units) on every axis,
    widened by one part in 10^9 so that rounding in the division never
    puts a pair within ``eps`` two buckets apart. Bucket coordinates are
    compacted per axis first — a run of empty buckets shrinks to one — so
    the key space is bounded by the point count, not by the coordinate
    range; adjacency (|delta| <= 1 on every axis) is unchanged by that.
    ``None`` when even the compacted key space overflows int64 (many
    dimensions), which the caller answers with the dense producer.
    """
    edge = eps if scale is None else eps / np.asarray(scale, dtype=float)
    cells = np.floor(points / (edge * (1 + 1e-9))).astype(np.int64)
    dim = cells.shape[1]
    compact = np.empty_like(cells)
    extents: list[int] = []
    for axis in range(dim):
        values, inverse = np.unique(cells[:, axis], return_inverse=True)
        steps = np.minimum(np.diff(values), 2)
        position = np.concatenate(([1], 1 + np.cumsum(steps)))
        compact[:, axis] = position[inverse]
        extents.append(int(position[-1]) + 2)  # room for the -1/+1 probes
    strides = [1] * dim
    for axis in range(dim - 2, -1, -1):
        strides[axis] = strides[axis + 1] * extents[axis + 1]
    if strides[0] * extents[0] >= 2**62:
        return None
    stride_array = np.asarray(strides, dtype=np.int64)
    return compact @ stride_array, stride_array


def _ragged_product(
    start_a: np.ndarray, size_a: np.ndarray, start_b: np.ndarray, size_b: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """All (a, b) positions of every pair of ranges, as flat array chunks.

    The products are numbered end to end and that numbering is cut into
    chunks, so memory is bounded even when one bucket holds every point.
    """
    counts = size_a * size_b
    ends = np.cumsum(counts)
    begins = ends - counts
    total = int(ends[-1]) if len(ends) else 0
    for chunk in range(0, total, _PAIR_CHUNK):
        flat = np.arange(chunk, min(total, chunk + _PAIR_CHUNK))
        pair = np.searchsorted(ends, flat, side="right")
        within = flat - begins[pair]
        width = size_b[pair]
        yield start_a[pair] + within // width, start_b[pair] + within % width


def grid_edges(points: np.ndarray, eps: float, scale: np.ndarray | None = None) -> Edges:
    """Pairs within ``eps`` via a uniform grid, one bucket pair at a time.

    Points are sorted by bucket; for the bucket itself and each forward
    neighbour offset, the candidate pairs of *all* occupied buckets are
    laid out as one flat array and tested in one pass. Cost follows local
    density (candidates per point), not n. One ``lexsort`` puts the pairs
    in the ``(hi, lo)`` order the other producers emit them in.
    """
    _check_eps(eps)
    n, dim = points.shape
    if n < 2 or dim == 0:
        return dense_edges(points, eps, scale=scale)
    keyed = _bucket_keys(points, eps, scale)
    if keyed is None:
        return dense_edges(points, eps, scale=scale)
    keys, strides = keyed
    order = np.argsort(keys, kind="stable")
    buckets, first, size = np.unique(keys[order], return_index=True, return_counts=True)
    sorted_points = points[order]
    limit = eps * eps
    lows: list[np.ndarray] = []
    highs: list[np.ndarray] = []

    def emit(a: np.ndarray, b: np.ndarray) -> None:
        near = _near(sorted_points[a] - sorted_points[b], _factors(scale, len(a)), limit)
        a, b = order[a[near]], order[b[near]]
        lows.append(np.minimum(a, b))
        highs.append(np.maximum(a, b))

    # within a bucket: positions a < b of the same range
    for a, b in _ragged_product(first, size, first, size):
        inside = a < b
        emit(a[inside], b[inside])
    for offset in _forward_offsets(dim):
        wanted = buckets + offset @ strides
        slot = np.searchsorted(buckets, wanted)
        slot[slot == len(buckets)] = 0
        here = np.nonzero(buckets[slot] == wanted)[0]
        there = slot[here]
        for a, b in _ragged_product(first[here], size[here], first[there], size[there]):
            emit(a, b)
    lo, hi = _join(lows, highs)
    order = np.lexsort((lo, hi))
    return lo[order], hi[order]


# -- the labeller --------------------------------------------------------------


def pair_degree(n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Each of ``n`` points' eps-neighbours among the pairs (itself not
    counted): the degree :func:`label_edges` takes."""
    return np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n)


def _flatten(root: np.ndarray) -> np.ndarray:
    """Pointer jumping: follow every chain of hooks to its end."""
    while True:
        jumped = root[root]
        if (jumped == root).all():
            return root
        root = jumped


def _components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``root[p]``: the lowest index of p's component in the graph of the
    pairs ``(a, b)``, which are strictly ascending in ``(b, a)``.

    Min-label hooking and pointer jumping: ``root[p]`` only ever moves to a
    lower index of p's own component, so it ends at the component's lowest
    index.
    """
    root = np.arange(n)
    if not len(a):
        return root
    key = np.multiply(b, n, dtype=np.int64)
    key += a
    if (key[1:] <= key[:-1]).any():
        raise ValueError("label_edges needs its pairs strictly ascending in (hi, lo)")
    # First round: ``root`` is the identity, so every ``b`` hooks under its
    # lowest neighbour, the ``a`` of the first pair of its run — one
    # assignment with unique indices.
    first = np.flatnonzero(b[1:] != b[:-1]) + 1
    root[b[0]] = a[0]
    root[b[first]] = a[first]
    root = _flatten(root)
    while True:
        root_a, root_b = root[a], root[b]
        apart = root_a != root_b
        if not apart.any():
            return root
        a, b, root_a, root_b = a[apart], b[apart], root_a[apart], root_b[apart]
        # a chain whose indices zig-zag needs more rounds: hook the higher
        # root of every still-split pair under the lower
        np.minimum.at(root, np.maximum(root_a, root_b), np.minimum(root_a, root_b))
        root = _flatten(root)


def label_edges(
    degree: np.ndarray, lo: np.ndarray, hi: np.ndarray, min_samples: int
) -> np.ndarray:
    """DBSCAN labels of ``len(degree)`` points from their eps-neighbour pairs.

    ``degree`` is :func:`pair_degree` of the pairs (the sliding window
    keeps it beside its pairs rather than recounting). The pairs must be
    strictly ascending in ``(hi, lo)``, as every producer emits them;
    core-core pairs out of that order raise ``ValueError``. Identical, ids
    included, to growing clusters one seed at a time in index order (see
    the module docstring for why).
    """
    if min_samples < 1:
        raise ValueError("min_samples must be >= 1")
    n = len(degree)
    labels = np.full(n, NOISE, dtype=np.int64)
    core = degree >= min_samples - 1  # the point itself makes up the rest
    if not core.any():  # no cluster, so no border point: all noise (or n = 0)
        return labels
    # A point is in a pair exactly when its degree is positive, so when no
    # non-core point has one, every pair is core-core — the usual case in a
    # dense window — and telling the pairs apart needs no pass over them.
    mixed = np.count_nonzero(degree[~core])
    if mixed:
        lo_core, hi_core = core[lo], core[hi]
        both = lo_core & hi_core
        root = _components(n, lo[both], hi[both])
    else:
        root = _components(n, lo, hi)

    # number clusters by ascending lowest core index
    is_seed = core & (root == np.arange(n))
    cluster_of_seed = np.cumsum(is_seed) - 1
    labels[core] = cluster_of_seed[root[core]]
    if not mixed:
        return labels

    # a border point joins the first-born cluster among its core neighbours
    lo_border = hi_core & ~lo_core
    hi_border = lo_core & ~hi_core
    border = np.concatenate((lo[lo_border], hi[hi_border]))
    if len(border):
        via = np.concatenate((hi[lo_border], lo[hi_border]))
        claimed = np.full(n, n, dtype=np.int64)
        np.minimum.at(claimed, border, labels[via])
        reached = claimed < n
        labels[reached] = claimed[reached]
    return labels


def _edges(points: np.ndarray, eps: float) -> Edges:
    if len(points) <= DENSE_CUTOFF:
        return dense_edges(points, eps)
    return grid_edges(points, eps)


def dbscan(
    points: np.ndarray | Iterable[Iterable[float]],
    eps: float,
    min_samples: int,
) -> np.ndarray:
    """Cluster ``points``; returns an (n,) label array (noise = -1).

    ``min_samples`` counts the point itself, matching the common
    convention: a point is *core* when its eps-neighborhood (inclusive)
    holds at least ``min_samples`` points.
    """
    points = _as_points(points)
    if min_samples < 1:
        raise ValueError("min_samples must be >= 1")
    lo, hi = _edges(points, eps)
    return label_edges(pair_degree(len(points), lo, hi), lo, hi, min_samples)


def core_point_mask(points: np.ndarray, eps: float, min_samples: int) -> np.ndarray:
    """Boolean mask of core points (used by property tests)."""
    points = _as_points(points)
    lo, hi = _edges(points, eps)
    return pair_degree(len(points), lo, hi) >= min_samples - 1
