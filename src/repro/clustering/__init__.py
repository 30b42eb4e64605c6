"""Clustering algorithms used by STRATA's Event Aggregator.

From-scratch DBSCAN — neighbour-pair producers (dense, grid, naive) feeding
one array-at-a-time labeller — with a sliding layer window that keeps its
neighbour pairs between evaluations (the paper's
``correlateEvents(L, DBSCAN)`` semantics), plus the k-means baseline from
prior defect-detection work.
"""

from .dbscan import (
    NOISE,
    core_point_mask,
    dbscan,
    dense_edges,
    grid_edges,
    label_edges,
    naive_edges,
    pair_degree,
)
from .incremental import (
    ClusteringResult,
    ClusterSummary,
    LayerWindowClusterer,
    summarize_clusters,
)
from .kmeans import inertia, kmeans, kmeans_plus_plus_init
from .quality import detection_scores, pair_confusion, rand_index

__all__ = [
    "dbscan",
    "dense_edges",
    "grid_edges",
    "naive_edges",
    "label_edges",
    "pair_degree",
    "core_point_mask",
    "NOISE",
    "LayerWindowClusterer",
    "ClusteringResult",
    "ClusterSummary",
    "summarize_clusters",
    "kmeans",
    "kmeans_plus_plus_init",
    "inertia",
    "rand_index",
    "pair_confusion",
    "detection_scores",
]
