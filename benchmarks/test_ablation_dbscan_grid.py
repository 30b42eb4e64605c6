"""A3 ablation — grid-accelerated vs naive DBSCAN neighborhood search.

A from-scratch DBSCAN (a cold correlate window, a restore, an offline
analysis) spends its time finding eps-neighbour pairs; labelling them is
one array pass either way. This ablation scales the number of event points
and compares two pair producers under the same labeller: the uniform grid
``dbscan()`` uses (candidates per pair of adjacent buckets, all buckets at
once) against ``naive_edges``, one O(n) scan per point.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.bench import format_table, save_json
from repro.clustering import dbscan, label_edges, naive_edges, pair_degree

SIZES = [500, 2000, 8000]

_rows: list[list] = []


def make_points(n, seed=0, blob_size=40):
    """Many small defect blobs scattered over the plate, plus noise.

    Mirrors real event windows: each defect contributes a bounded number
    of anomalous cells, and defects are spread across 12 specimens — so
    eps-neighborhoods are local, which is exactly the regime where a
    spatial index pays off over the O(n^2) scan.
    """
    rng = np.random.default_rng(seed)
    num_blobs = max(1, (3 * n // 4) // blob_size)
    centers = rng.uniform(0, 250, size=(num_blobs, 3))
    blobs = [rng.normal(center, 1.0, size=(blob_size, 3)) for center in centers]
    noise = rng.uniform(0, 250, size=(n - num_blobs * blob_size, 3))
    return np.vstack(blobs + [noise])


@pytest.mark.parametrize("n", SIZES)
def test_ablation_grid_vs_naive(benchmark, n):
    points = make_points(n)

    def run_both():
        t0 = time.perf_counter()
        grid = dbscan(points, eps=2.0, min_samples=4)
        grid_time = time.perf_counter() - t0
        t0 = time.perf_counter()
        lo, hi = naive_edges(points, 2.0)
        naive = label_edges(pair_degree(len(points), lo, hi), lo, hi, 4)
        naive_time = time.perf_counter() - t0
        return grid, grid_time, naive, naive_time

    grid, grid_time, naive, naive_time = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    assert np.array_equal(grid, naive), "the pair producer must not change a label"
    _rows.append([n, round(grid_time * 1e3, 2), round(naive_time * 1e3, 2),
                  round(naive_time / grid_time, 1)])
    benchmark.extra_info.update(points=n, speedup=round(naive_time / grid_time, 1))


def test_ablation_grid_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert len(_rows) == len(SIZES)
    print("\n=== Ablation A3: grid vs naive DBSCAN neighborhood search ===")
    print(format_table(["points", "grid_ms", "naive_ms", "speedup"], _rows))
    save_json(
        "ablation_dbscan_grid",
        {str(row[0]): {"grid_ms": row[1], "naive_ms": row[2]} for row in _rows},
    )
    # the grid must win at scale
    assert _rows[-1][1] < _rows[-1][2], f"grid should beat O(n^2) at {SIZES[-1]} points"
