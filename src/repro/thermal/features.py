"""Melt-pool feature extraction (the reconstruction pipeline's detect F).

Turns each on-axis melt-pool frame into per-cell intensity statistics
(total / peak / melt-fraction grids — the per-cell features) plus the
two plate-level log-features the laser-parameter regressor inverts.
``__call__`` and ``process_block`` apply the same strided-reshape kernel
from :mod:`repro.analysis.thermal_kernels` per frame, so a frame's
features do not depend on whether it arrived alone or in a run.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..analysis.thermal_kernels import laser_feature_vector, meltpool_cell_stats
from ..spe.columnar import ColumnarBlock
from ..spe.tuples import StreamTuple

__all__ = ["ExtractMeltPoolFeatures"]


class ExtractMeltPoolFeatures:
    """detectEvent F: per-cell melt-pool statistics + regressor features."""

    def __init__(
        self,
        *,
        cell_edge_px: int,
        px_per_mm: float,
        melt_threshold: float,
        top_k: int = 64,
    ) -> None:
        self._cell_edge_px = cell_edge_px
        self._px_per_mm = px_per_mm
        self._melt_threshold = melt_threshold
        self._top_k = top_k
        self.frames_processed = 0
        self.cells_evaluated = 0

    def _features(self, image: np.ndarray, track_length_mm: float) -> tuple[float, float]:
        return laser_feature_vector(
            image, track_length_mm * self._px_per_mm, top_k=self._top_k
        )

    def _payload(
        self,
        t_payload: dict[str, Any],
        total: np.ndarray,
        peak: np.ndarray,
        melt: np.ndarray,
    ) -> dict[str, Any]:
        log_peak, log_dose = self._features(
            t_payload["melt_image"], t_payload["track_length_mm"]
        )
        self.cells_evaluated += total.size
        return {
            "log_peak": log_peak,
            "log_dose": log_dose,
            "cell_total": total,
            "cell_peak": peak,
            "cell_melt_fraction": melt,
            "melt_fraction": float(np.mean(melt)),
            "track_length_mm": t_payload["track_length_mm"],
            "commanded_power_w": t_payload["commanded_power_w"],
            "commanded_speed_mm_s": t_payload["commanded_speed_mm_s"],
        }

    def __call__(self, t: StreamTuple) -> StreamTuple:
        total, peak, melt = meltpool_cell_stats(
            t.payload["melt_image"], self._cell_edge_px, self._melt_threshold
        )
        self.frames_processed += 1
        return t.derive(payload=self._payload(t.payload, total, peak, melt), copy=False)

    def process_block(self, block: ColumnarBlock) -> ColumnarBlock:
        images = block.columns["melt_image"]
        n = len(block)
        payloads: list[dict[str, Any]] = []
        for i in range(n):
            total, peak, melt = meltpool_cell_stats(
                images[i], self._cell_edge_px, self._melt_threshold
            )
            row_payload = {
                key: block.columns[key][i]
                for key in (
                    "melt_image",
                    "track_length_mm",
                    "commanded_power_w",
                    "commanded_speed_mm_s",
                )
            }
            payloads.append(self._payload(row_payload, total, peak, melt))
        self.frames_processed += n
        return block.replace_columns(
            {
                "log_peak": np.asarray([p["log_peak"] for p in payloads]),
                "log_dose": np.asarray([p["log_dose"] for p in payloads]),
                "cell_total": [p["cell_total"] for p in payloads],
                "cell_peak": [p["cell_peak"] for p in payloads],
                "cell_melt_fraction": [p["cell_melt_fraction"] for p in payloads],
                "melt_fraction": np.asarray([p["melt_fraction"] for p in payloads]),
                "track_length_mm": np.asarray(
                    [p["track_length_mm"] for p in payloads]
                ),
                "commanded_power_w": np.asarray(
                    [p["commanded_power_w"] for p in payloads]
                ),
                "commanded_speed_mm_s": np.asarray(
                    [p["commanded_speed_mm_s"] for p in payloads]
                ),
            }
        )

    # counters are the only state; they reshard additively into shard 0
    def snapshot_state(self) -> dict[str, Any]:
        return {
            "frames_processed": self.frames_processed,
            "cells_evaluated": self.cells_evaluated,
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        # max, not assignment: detect replicas share one fn instance, so
        # after a rescale every shard's state restores onto this object
        # (shard 0 carries the totals, the rest zeros)
        self.frames_processed = max(
            self.frames_processed, int(state["frames_processed"])
        )
        self.cells_evaluated = max(self.cells_evaluated, int(state["cells_evaluated"]))

    def reshard_state(self, states, shards, route):
        frames = sum(int(s["frames_processed"]) for s in states if s is not None)
        cells = sum(int(s["cells_evaluated"]) for s in states if s is not None)
        return [
            {
                "frames_processed": frames if i == 0 else 0,
                "cells_evaluated": cells if i == 0 else 0,
            }
            for i in range(shards)
        ]
