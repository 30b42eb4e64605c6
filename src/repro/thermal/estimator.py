"""Streaming thermal state estimation (the forecast pipeline's operators).

Pipeline shape (Table 1 verbs):

    addSource(thermal frames) ──┐
    addSource(scan plan)     ───┴─ fuse ─ partition(PartitionThermalRegions)
        ─ detectEvent(EstimateThermalState) ─ correlateEvents(L,
          ThermalForecastCorrelator) ─ deliver

``partition`` splits each fused layer tuple into region tuples keyed by
a region specimen, which is what shards the estimator state and lets the
elastic controller rescale it.  ``detectEvent`` runs one independent
Kalman filter per grid cell (kernels in
:mod:`repro.analysis.thermal_kernels`): predict through the planned
deposition, update against the measured frame (NaN cells coast), then
forecast the next layer from its published plan — and raises a
*predictive* QoS alert through the shared
:class:`~repro.obs.watchdog.QoSWatchdog` when the forecast crosses the
overheat threshold, one recoat gap before the breach would materialize.

``__call__`` is ``process_block`` over one row: both advance a region
through the same grid kernels (``_step_grids``), so a region tuple's
output does not depend on whether it arrived alone or in a run.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..analysis.thermal_kernels import kalman_predict, kalman_update
from ..am.scanpath import ThermalModelParams
from ..kvstore.api import KVStore
from ..obs.watchdog import QoSWatchdog, RECOAT_GAP_SECONDS
from ..spe.columnar import ColumnarBlock
from ..spe.tuples import StreamTuple
from .model import load_thermal_model

__all__ = [
    "PartitionThermalRegions",
    "EstimateThermalState",
    "ThermalForecastCorrelator",
    "INITIAL_STATE_VAR",
]

#: initial per-cell covariance: wide enough that the first measurement
#: dominates the ambient-temperature prior
INITIAL_STATE_VAR = 25.0


class PartitionThermalRegions:
    """partition F: split a fused layer tuple into region sub-grids.

    Assigns one specimen per region (``region-<i>-<j>``), which becomes
    the routing/sharding key of everything downstream.  Always runs on
    the scalar path — it is the specimen-assigning stage, where the
    layer-completeness punctuation is minted.
    """

    def __init__(self, region_rows: int = 2, region_cols: int = 2) -> None:
        if region_rows < 1 or region_cols < 1:
            raise ValueError("region grid must be at least 1x1")
        self.region_rows = region_rows
        self.region_cols = region_cols

    def _bounds(self, size: int, splits: int) -> list[tuple[int, int]]:
        edges = [round(i * size / splits) for i in range(splits + 1)]
        return [(edges[i], edges[i + 1]) for i in range(splits)]

    def region_bounds(
        self, i: int, j: int, shape: tuple[int, int]
    ) -> tuple[tuple[int, int], tuple[int, int]]:
        """(row, col) slice bounds of region ``(i, j)`` for a full grid."""
        rows, cols = shape
        return (
            self._bounds(rows, self.region_rows)[i],
            self._bounds(cols, self.region_cols)[j],
        )

    def __call__(self, t: StreamTuple) -> list[StreamTuple]:
        frame = t.payload["temp_frame"]
        plan = t.payload["energy_plan"]
        plan_next = t.payload["energy_plan_next"]
        rows, cols = frame.shape
        out: list[StreamTuple] = []
        for i, (r0, r1) in enumerate(self._bounds(rows, self.region_rows)):
            for j, (c0, c1) in enumerate(self._bounds(cols, self.region_cols)):
                out.append(
                    t.derive(
                        payload={
                            "temp_frame": np.ascontiguousarray(frame[r0:r1, c0:c1]),
                            "energy_plan": np.ascontiguousarray(plan[r0:r1, c0:c1]),
                            "energy_plan_next": np.ascontiguousarray(
                                plan_next[r0:r1, c0:c1]
                            ),
                            "origin_row": int(r0),
                            "origin_col": int(c0),
                        },
                        specimen=f"region-{i}-{j}",
                        portion="__whole__",
                        copy=False,
                    )
                )
        return out


class EstimateThermalState:
    """detectEvent F: per-cell Kalman filter + next-layer forecast.

    State is a (state, covariance) grid pair per ``(job, specimen)``
    group — exactly the routing key, so ``reshard_state`` can split it
    across replicas the same way :class:`CorrelateEventsOperator` splits
    its windows.  The model parameters are calibration data loaded
    lazily from the KV store per job.
    """

    def __init__(
        self,
        store: KVStore,
        *,
        overheat_threshold: float | None = None,
        watchdog: QoSWatchdog | None = None,
        lead_time_s: float = RECOAT_GAP_SECONDS,
        source_name: str = "thermal-estimator",
    ) -> None:
        self._store = store
        self._overheat = overheat_threshold
        self._watchdog = watchdog
        self._lead_time_s = lead_time_s
        self._source_name = source_name
        self._params: ThermalModelParams | None = None
        self._params_job: str | None = None
        # (job, specimen) -> {"state": ndarray, "cov": ndarray}
        self._groups: dict[tuple[str, str], dict[str, np.ndarray]] = {}
        self.frames_processed = 0
        self.cells_filtered = 0

    # -- model / state access ----------------------------------------------

    def _model(self, job: str) -> ThermalModelParams:
        if job != self._params_job:
            self._params = load_thermal_model(self._store, job)
            self._params_job = job
        assert self._params is not None
        return self._params

    def _group(
        self, job: str, specimen: str, shape: tuple[int, int], ambient: float
    ) -> dict[str, np.ndarray]:
        key = (job, specimen)
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = {
                "state": np.full(shape, ambient, dtype=np.float64),
                "cov": np.full(shape, INITIAL_STATE_VAR, dtype=np.float64),
            }
        return group

    # -- the shared per-region step ------------------------------------------

    def _step_grids(
        self,
        job: str,
        specimen: str,
        frame: np.ndarray,
        energy: np.ndarray,
        energy_next: np.ndarray,
    ) -> dict[str, Any]:
        """Advance one region one layer; returns the output payload."""
        params = self._model(job)
        group = self._group(job, specimen, frame.shape, params.ambient)
        state, cov = group["state"], group["cov"]
        pred, pred_cov = kalman_predict(
            state,
            cov,
            energy,
            ambient=params.ambient,
            retention=params.retention,
            coupling=params.coupling_per_j,
            process_var=params.process_var,
        )
        new_state, new_cov, innovation, valid = kalman_update(
            pred, pred_cov, frame, sensor_var=params.sensor_var
        )
        state[...] = new_state
        cov[...] = new_cov
        dropped = int(state.size - np.count_nonzero(valid))
        forecast, _ = kalman_predict(
            state,
            cov,
            energy_next,
            ambient=params.ambient,
            retention=params.retention,
            coupling=params.coupling_per_j,
            process_var=params.process_var,
        )
        self.cells_filtered += state.size
        overheat_cells = (
            int(np.count_nonzero(forecast > self._overheat))
            if self._overheat is not None
            else 0
        )
        return {
            "forecast": forecast,
            "measured": frame,
            "forecast_mean": float(np.mean(forecast)),
            "forecast_max": float(np.max(forecast)),
            "filtered_mean": float(np.mean(state)),
            "innovation_rmse": float(np.sqrt(np.mean(innovation * innovation))),
            "overheat_cells": overheat_cells,
            "dropped_cells": int(dropped),
        }

    def _maybe_alert(self, t_job: str, t_layer: int, specimen: str, payload) -> None:
        if (
            self._watchdog is not None
            and self._overheat is not None
            and payload["forecast_max"] > self._overheat
        ):
            # the forecast is for the *next* layer: the alert lands one
            # recoat gap before that layer's heat arrives
            self._watchdog.observe_forecast(
                job=t_job,
                layer=t_layer + 1,
                specimen=specimen,
                source=self._source_name,
                predicted_value=payload["forecast_max"],
                threshold=self._overheat,
                lead_time_s=self._lead_time_s,
            )

    # -- one region tuple ----------------------------------------------------

    def __call__(self, t: StreamTuple) -> StreamTuple:
        payload = self._step_grids(
            t.job,
            t.specimen,
            t.payload["temp_frame"],
            t.payload["energy_plan"],
            t.payload["energy_plan_next"],
        )
        self.frames_processed += 1
        self._maybe_alert(t.job, t.layer, t.specimen, payload)
        return t.derive(payload=payload, copy=False)

    # -- columnar path -------------------------------------------------------

    def process_block(self, block: ColumnarBlock) -> ColumnarBlock:
        """A run of region rows, one output per row.

        Rows advance their region's filter in stream order (state is
        sequential per group); summaries land in columns.
        """
        frames = block.columns["temp_frame"]
        plans = block.columns["energy_plan"]
        plans_next = block.columns["energy_plan_next"]
        n = len(block)
        forecasts: list[np.ndarray] = []
        measured: list[np.ndarray] = []
        forecast_mean = np.empty(n, dtype=np.float64)
        forecast_max = np.empty(n, dtype=np.float64)
        filtered_mean = np.empty(n, dtype=np.float64)
        innovation_rmse = np.empty(n, dtype=np.float64)
        overheat_cells: list[int] = []
        dropped_cells: list[int] = []
        jobs = block.job
        specimens = block.specimen
        layers = block.layer.tolist()
        for i in range(n):
            payload = self._step_grids(
                jobs[i],
                specimens[i],
                frames[i],
                plans[i],
                plans_next[i],
            )
            forecasts.append(payload["forecast"])
            measured.append(payload["measured"])
            forecast_mean[i] = payload["forecast_mean"]
            forecast_max[i] = payload["forecast_max"]
            filtered_mean[i] = payload["filtered_mean"]
            innovation_rmse[i] = payload["innovation_rmse"]
            overheat_cells.append(payload["overheat_cells"])
            dropped_cells.append(payload["dropped_cells"])
            self._maybe_alert(jobs[i], layers[i], specimens[i], payload)
        self.frames_processed += n
        return block.replace_columns(
            {
                "forecast": forecasts,
                "measured": measured,
                "forecast_mean": forecast_mean,
                "forecast_max": forecast_max,
                "filtered_mean": filtered_mean,
                "innovation_rmse": innovation_rmse,
                "overheat_cells": np.asarray(overheat_cells, dtype=np.int64),
                "dropped_cells": np.asarray(dropped_cells, dtype=np.int64),
            }
        )

    # -- checkpoint / recover / rescale ---------------------------------------

    def snapshot_state(self) -> dict[str, Any]:
        return {
            "groups": {
                key: {"state": g["state"].copy(), "cov": g["cov"].copy()}
                for key, g in self._groups.items()
            },
            "frames_processed": self.frames_processed,
            "cells_filtered": self.cells_filtered,
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        """Merge a shard's groups into this function's state.

        Merge (not replace) because detect replicas share one function
        instance: after a rescale every new shard's state is restored
        onto the same object, and the union must survive.  On a freshly
        built pipeline (crash recovery) the merge target is empty, so
        merging degenerates to plain restore.  Counters take the max —
        they are whole-group totals snapshotted identically per replica.
        """
        for key, g in state["groups"].items():
            self._groups[tuple(key)] = {
                "state": np.array(g["state"], dtype=np.float64),
                "cov": np.array(g["cov"], dtype=np.float64),
            }
        self.frames_processed = max(
            self.frames_processed, int(state["frames_processed"])
        )
        self.cells_filtered = max(self.cells_filtered, int(state["cells_filtered"]))

    def reshard_state(self, states, shards, route):
        """Split the per-group filters along the routing key.

        The group key ``(job, specimen)`` is the routing key (regions are
        specimens), mirroring ``CorrelateEventsOperator.reshard_state``;
        the additive counters land in shard 0.
        """
        groups: dict[tuple[str, str], dict[str, np.ndarray]] = {}
        frames = 0
        cells = 0
        for s in states:
            if s is None:
                continue
            for key, g in s["groups"].items():
                groups[tuple(key)] = g
            frames += int(s["frames_processed"])
            cells += int(s["cells_filtered"])
        out: list[dict[str, Any]] = []
        for i in range(shards):
            out.append(
                {
                    "groups": {
                        key: {"state": g["state"].copy(), "cov": g["cov"].copy()}
                        for key, g in groups.items()
                        if route(key) == i
                    },
                    "frames_processed": frames if i == 0 else 0,
                    "cells_filtered": cells if i == 0 else 0,
                }
            )
        return out


class ThermalForecastCorrelator:
    """correlateEvents F: score forecasts against the next layer's frame.

    Triggered per (job, region) on layer completeness.  Emits the current
    layer's forecast summary plus the *realized* accuracy of the previous
    layer's forecast — the closed loop that makes forecast quality an
    observable stream, not an offline metric.  Stateless: the L-layer
    window lives in the correlate operator, so checkpoint/rescale come
    for free.
    """

    def __init__(self, overheat_threshold: float | None = None) -> None:
        self._overheat = overheat_threshold

    def __call__(
        self,
        job: str,
        layer: int,
        specimen: str,
        window_events: list[StreamTuple],
    ) -> dict[str, Any] | None:
        current = None
        previous = None
        for event in window_events:
            if event.layer == layer:
                current = event
            elif event.layer == layer - 1:
                previous = event
        if current is None:
            return None
        realized_rmse = -1.0
        if previous is not None:
            diff = current.payload["measured"] - previous.payload["forecast"]
            valid = ~np.isnan(diff)
            if np.any(valid):
                realized_rmse = float(np.sqrt(np.mean(diff[valid] ** 2)))
        window_means = np.asarray(
            [e.payload["forecast_mean"] for e in window_events], dtype=np.float64
        )
        return {
            "forecast_mean": current.payload["forecast_mean"],
            "forecast_max": current.payload["forecast_max"],
            "filtered_mean": current.payload["filtered_mean"],
            "innovation_rmse": current.payload["innovation_rmse"],
            "overheat_cells": current.payload["overheat_cells"],
            "dropped_cells": current.payload["dropped_cells"],
            "realized_rmse": realized_rmse,
            "window_forecast_mean": float(np.mean(window_means)),
            "forecast": current.payload["forecast"],
        }
