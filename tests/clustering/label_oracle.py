"""Test-only oracle: the labeller as it shipped before the first hook round
took each ``hi`` run's first pair and the window kept its degrees.

Kept verbatim: ``label_edges(n, lo, hi, min_samples)`` counts degrees with
two ``bincount``s over every pair and hooks every round with
``np.minimum.at``, so it accepts pairs in any order. The property suites
demand *equal* labels, ids included, from ``repro.clustering``.
"""

from __future__ import annotations

import numpy as np

NOISE = -1


def _core_mask(n: int, lo: np.ndarray, hi: np.ndarray, min_samples: int) -> np.ndarray:
    """Core points: eps-neighbourhood (the point included) >= min_samples."""
    degree = np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n) + 1
    return degree >= min_samples


def label_edges(n: int, lo: np.ndarray, hi: np.ndarray, min_samples: int) -> np.ndarray:
    """DBSCAN labels of ``n`` points from their eps-neighbour pairs.

    Identical, ids included, to growing clusters one seed at a time in
    index order (see the module docstring for why).
    """
    if min_samples < 1:
        raise ValueError("min_samples must be >= 1")
    labels = np.full(n, NOISE, dtype=np.int64)
    if n == 0:
        return labels
    core = _core_mask(n, lo, hi, min_samples)
    lo_core = core[lo]
    hi_core = core[hi]

    # Connected components of the core graph. ``root[p]`` only ever moves
    # to a lower index of p's own component, so it ends at the component's
    # lowest core index.
    both = lo_core & hi_core
    a, b = lo[both], hi[both]
    index = np.arange(n)
    root = index.copy()
    while len(a):
        root_a, root_b = root[a], root[b]
        apart = root_a != root_b
        if not apart.any():
            break
        a, b, root_a, root_b = a[apart], b[apart], root_a[apart], root_b[apart]
        # hook the higher root of every still-split edge under the lower
        np.minimum.at(root, np.maximum(root_a, root_b), np.minimum(root_a, root_b))
        while True:  # pointer jumping: flatten every chain of hooks
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped

    # number clusters by ascending lowest core index
    is_seed = core & (root == index)
    cluster_of_seed = np.cumsum(is_seed) - 1
    labels[core] = cluster_of_seed[root[core]]

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
