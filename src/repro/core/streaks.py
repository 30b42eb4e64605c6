"""Second use case: recoater-streak monitoring.

The paper's future work (§7) calls for extending the use-case portfolio
to other "type[s] of monitored defect". Recoater streaks are the natural
second target: a nicked blade starves a thin band of powder along the
recoating direction, under-melting *every* specimen it crosses and
persisting for layers until the blade is cleaned.

The pipeline differs instructively from the thermal use case — and needs
no new framework machinery, only different user functions on the same
Table 1 API:

* no ``isolateSpecimen`` partition: a streak is a *plate-wide* feature,
  so the whole layer is analyzed as one unit (the Table 1 partition
  default), and the Event Aggregator groups plate-level events;
* ``detectEvent`` scans melted-pixel row profiles for depressed bands;
* ``correlateEvents`` clusters the bands in (y, layer) space: a real
  streak is a y-stable band persisting over consecutive layers, which is
  exactly a DBSCAN cluster elongated along the layer axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..am.dataset import LayerRecord
from ..clustering.dbscan import dbscan
from ..spe.sink import CollectingSink, Sink
from ..spe.source import Source
from ..spe.tuples import StreamTuple
from .api import Strata
from .collectors import OTImageCollector, PrintingParameterCollector


class DetectStreakRows:
    """detectEvent F: flag image rows whose melt emission is depressed.

    Per pixel row, the mean intensity over *melted* pixels is compared to
    a windowed median baseline of neighboring rows; rows depressed by more
    than ``depression_gray`` (chosen above the hatch-texture amplitude)
    form candidate bands. One event tuple is emitted per contiguous band.
    """

    def __init__(
        self,
        melt_floor: float = 32.0,
        depression_gray: float = 18.0,
        baseline_rows: int = 25,
        min_melted_px: int = 10,
    ) -> None:
        self._melt_floor = melt_floor
        self._depression = depression_gray
        self._baseline_rows = baseline_rows
        self._min_melted = min_melted_px
        self.rows_scanned = 0

    def __call__(self, t: StreamTuple) -> list[StreamTuple]:
        image = np.asarray(t.payload["image"], dtype=float)
        melted = image >= self._melt_floor
        counts = melted.sum(axis=1)
        valid = counts >= self._min_melted
        if not valid.any():
            return []
        sums = (image * melted).sum(axis=1)
        row_mean = np.zeros(len(counts))
        row_mean[valid] = sums[valid] / counts[valid]
        self.rows_scanned += int(valid.sum())

        baseline = _windowed_median(row_mean, valid, self._baseline_rows)
        depressed = valid & (baseline - row_mean > self._depression)
        outputs: list[StreamTuple] = []
        for band_start, band_end in _contiguous_bands(depressed):
            band = slice(band_start, band_end)
            depth = float((baseline[band] - row_mean[band])[valid[band]].mean())
            outputs.append(
                t.derive(
                    payload={
                        "y_px": (band_start + band_end - 1) / 2.0,
                        "band_rows": band_end - band_start,
                        "depression_gray": depth,
                        "melted_px": int(counts[band].sum()),
                    },
                    portion=f"rows:{band_start}-{band_end - 1}",
                )
            )
        return outputs


def _windowed_median(values: np.ndarray, valid: np.ndarray, window: int) -> np.ndarray:
    """Median of valid entries in a centered window, per position (0.0
    where a window holds none).

    One sort for all positions: row ``i`` of an ``(n, 2·half + 1)`` matrix
    is the window around ``i``, with invalid and off-the-end entries set
    to ``inf`` so sorting pushes them past the ``k`` valid ones. The
    median is then the mean of sorted entries ``(k - 1) // 2`` and
    ``k // 2``, formed as ``np.median`` forms it — ``(lo + hi) / 2.0`` —
    so every (finite-valued) row equals a per-position ``np.median``.
    """
    half = max(1, window // 2)
    n = len(values)
    padded = np.full(n + 2 * half, np.inf)
    padded[half : half + n] = np.where(valid, values, np.inf)
    windows = np.sort(sliding_window_view(padded, 2 * half + 1), axis=1)
    counts = sliding_window_view(np.pad(valid, half), 2 * half + 1).sum(axis=1)
    rows = np.arange(n)
    lo = windows[rows, np.maximum(counts - 1, 0) // 2]
    hi = windows[rows, counts // 2]
    return np.where(counts > 0, (lo + hi) / 2.0, 0.0)


def _contiguous_bands(mask: np.ndarray) -> list[tuple[int, int]]:
    """[start, end) index ranges of True runs in a boolean vector."""
    bands: list[tuple[int, int]] = []
    start: int | None = None
    for i, flag in enumerate(mask.tolist() + [False]):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            bands.append((start, i))
            start = None
    return bands


class StreakCorrelator:
    """correlateEvents F: persistent y-stable bands across layers.

    Band events are clustered in (y_mm, layer) space; a cluster spanning
    at least ``min_layers`` distinct layers is reported as a streak with
    its transverse position, layer span, and mean depression.
    """

    def __init__(
        self,
        px_per_mm: float,
        y_tolerance_mm: float = 1.5,
        min_layers: int = 2,
    ) -> None:
        self._px_per_mm = px_per_mm
        self._y_tol = y_tolerance_mm
        self._min_layers = min_layers

    def __call__(
        self, job: str, layer: int, specimen: str, events: list[StreamTuple]
    ) -> dict[str, Any]:
        if not events:
            return {"num_band_events": 0, "streaks": []}
        points = np.array(
            [
                (e.payload["y_px"] / self._px_per_mm, float(e.layer) * self._y_tol)
                for e in events
            ]
        )
        # eps spans one y-tolerance in both axes: adjacent layers at the
        # same y are neighbors, same-layer bands within tolerance merge.
        labels = dbscan(points, eps=self._y_tol * 1.5, min_samples=1)
        streaks: list[dict[str, Any]] = []
        for cluster_id in sorted(set(labels.tolist())):
            members = [e for e, label in zip(events, labels) if label == cluster_id]
            layers = sorted({e.layer for e in members})
            if len(layers) < self._min_layers:
                continue
            streaks.append(
                {
                    "y_mm": float(
                        np.mean([e.payload["y_px"] for e in members])
                        / self._px_per_mm
                    ),
                    "first_layer": layers[0],
                    "last_layer": layers[-1],
                    "layers_observed": len(layers),
                    "mean_depression_gray": float(
                        np.mean([e.payload["depression_gray"] for e in members])
                    ),
                }
            )
        streaks.sort(key=lambda s: s["y_mm"])
        return {"num_band_events": len(events), "streaks": streaks}


@dataclass
class StreakPipeline:
    """Composed recoater-monitoring pipeline."""

    strata: Strata
    sink: Sink
    detect_fn: DetectStreakRows


def build_streak_use_case(
    ot_records: Iterable[LayerRecord],
    pp_records: Iterable[LayerRecord],
    image_px: int,
    window_layers: int = 15,
    plate_mm: float = 250.0,
    strata: Strata | None = None,
    sink: Sink | None = None,
    ot_source: Source | None = None,
    detect: DetectStreakRows | None = None,
    min_layers: int = 2,
) -> StreakPipeline:
    """Compose the recoater-streak pipeline on a Strata instance.

    Note the absence of a partition step: the Table 1 default (the whole
    tuple as one specimen) is what plate-wide analysis wants.
    """
    if strata is None:
        strata = Strata()
    if sink is None:
        sink = CollectingSink("recoater-expert")
    detect_fn = detect or DetectStreakRows()
    strata.add_source(PrintingParameterCollector(pp_records), "pp")
    strata.add_source(ot_source or OTImageCollector(ot_records), "OT")
    strata.fuse("OT", "pp", "OT&pp")
    strata.detect_event("OT&pp", "bands", detect_fn)
    strata.correlate_events(
        "bands",
        "streaks",
        window_layers,
        StreakCorrelator(px_per_mm=image_px / plate_mm, min_layers=min_layers),
    )
    strata.deliver("streaks", sink)
    return StreakPipeline(strata=strata, sink=sink, detect_fn=detect_fn)
