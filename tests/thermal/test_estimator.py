"""Operator contract of the thermal estimator.

Covers the four promises the forecast pipeline's correctness rests on:
a lone ``__call__`` and a ``process_block`` row are bit-identical to each
other and to a per-cell Kalman recursion written with the test-only
oracle (:mod:`tests.analysis.thermal_oracle`);
``snapshot_state``/``restore_state`` round-trip exactly (and *merge* on
a shared replica function); ``reshard_state`` splits the
per-region filters along the routing key; and predictive QoS alerts fire
through the shared watchdog for the layer about to be affected, deduped
per (job, layer, source).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.kvstore.memory import MemoryStore
from repro.obs.watchdog import PREDICTIVE_CATEGORY, QoSWatchdog
from repro.spe.columnar import ColumnarBlock
from repro.spe.tuples import StreamTuple
from repro.thermal import (
    EstimateThermalState,
    PartitionThermalRegions,
    store_thermal_model,
)
from repro.thermal.estimator import INITIAL_STATE_VAR
from tests.analysis.thermal_oracle import kalman_predict_scalar, kalman_update_scalar

PARTITION = PartitionThermalRegions(2, 2)
SUMMARY_KEYS = (
    "forecast_mean",
    "forecast_max",
    "filtered_mean",
    "innovation_rmse",
    "overheat_cells",
    "dropped_cells",
)


def _fused_tuple(record) -> StreamTuple:
    return StreamTuple(
        tau=float(record.layer),
        job=record.job_id,
        layer=record.layer,
        payload={
            "temp_frame": record.measured_temp_cells,
            "energy_plan": record.energy_cells,
            "energy_plan_next": record.energy_next_cells,
        },
    )


def _region_layers(build) -> list[list[StreamTuple]]:
    """Per layer, the four region tuples the partition stage would emit."""
    return [PARTITION(_fused_tuple(r)) for r in build.records]


def _store_for(build) -> MemoryStore:
    store = MemoryStore()
    store_thermal_model(store, build.config.job_id, build.config.thermal)
    return store


def _estimator(build, **kwargs) -> EstimateThermalState:
    return EstimateThermalState(_store_for(build), **kwargs)


class TestScalarBlockParity:
    def test_call_and_process_block_are_bit_identical(self, small_build):
        scalar_fn = _estimator(small_build)
        block_fn = _estimator(small_build)
        for regions in _region_layers(small_build):
            scalar_out = [scalar_fn(t) for t in regions]
            block_out = block_fn.process_block(ColumnarBlock.from_tuples(regions))
            assert len(block_out) == len(scalar_out)
            rows = block_out.to_tuples()
            for s, b in zip(scalar_out, rows):
                assert s.specimen == b.specimen and s.layer == b.layer
                np.testing.assert_array_equal(
                    s.payload["forecast"], np.asarray(b.payload["forecast"])
                )
                for key in SUMMARY_KEYS:
                    assert s.payload[key] == b.payload[key]  # bit-identical
        assert scalar_fn.frames_processed == block_fn.frames_processed
        assert scalar_fn.cells_filtered == block_fn.cells_filtered

    def test_forecast_is_the_per_cell_recursion(self, small_build):
        """One independent scalar filter per cell, stepped with the oracle:
        the loop the estimator ran per tuple before it called the grid
        kernels for a lone tuple too."""
        params = small_build.config.thermal
        model = dict(
            ambient=params.ambient,
            retention=params.retention,
            coupling=params.coupling_per_j,
            process_var=params.process_var,
        )
        fn = _estimator(small_build)
        cells: dict[tuple[str, int, int], tuple[float, float]] = {}
        for regions in _region_layers(small_build):
            for t in regions:
                frame = t.payload["temp_frame"]
                energy = t.payload["energy_plan"]
                energy_next = t.payload["energy_plan_next"]
                expected = np.empty_like(frame)
                for i, j in np.ndindex(*frame.shape):
                    state, cov = cells.get(
                        (t.specimen, i, j), (params.ambient, INITIAL_STATE_VAR)
                    )
                    pred, pred_cov = kalman_predict_scalar(
                        state, cov, energy[i, j], **model
                    )
                    state, cov, _, _ = kalman_update_scalar(
                        pred, pred_cov, frame[i, j], sensor_var=params.sensor_var
                    )
                    cells[(t.specimen, i, j)] = (state, cov)
                    expected[i, j], _ = kalman_predict_scalar(
                        state, cov, energy_next[i, j], **model
                    )
                np.testing.assert_array_equal(fn(t).payload["forecast"], expected)

    def test_dropout_cells_are_counted_and_coasted(self):
        from tests.thermal.conftest import small_build_config
        from repro.am.scanpath import synthesize_thermal_build

        build = synthesize_thermal_build(
            small_build_config(layers=3, dropout_rate=0.15)
        )
        fn = _estimator(build)
        dropped = 0
        for regions in _region_layers(build):
            for t in regions:
                out = fn(t)
                assert out.payload["dropped_cells"] == int(
                    np.isnan(t.payload["temp_frame"]).sum()
                )
                dropped += out.payload["dropped_cells"]
                assert not np.isnan(out.payload["forecast"]).any()
        assert dropped > 0


class TestSnapshotRestore:
    def test_round_trip_resumes_identically(self, small_build):
        layers = _region_layers(small_build)
        oracle = _estimator(small_build)
        for regions in layers:
            for t in regions:
                oracle(t)

        first = _estimator(small_build)
        for regions in layers[:4]:
            for t in regions:
                first(t)
        resumed = _estimator(small_build)
        resumed.restore_state(first.snapshot_state())
        assert resumed.frames_processed == first.frames_processed

        check = _estimator(small_build)
        for regions in layers[:4]:
            for t in regions:
                check(t)
        for regions in layers[4:]:
            for t in regions:
                expected = check(t)
                actual = resumed(t)
                np.testing.assert_array_equal(
                    expected.payload["forecast"], actual.payload["forecast"]
                )
                for key in SUMMARY_KEYS:
                    assert expected.payload[key] == actual.payload[key]
        snap_a = oracle.snapshot_state()
        snap_b = resumed.snapshot_state()
        assert snap_a["frames_processed"] == snap_b["frames_processed"]
        for key, group in snap_a["groups"].items():
            np.testing.assert_array_equal(group["state"], snap_b["groups"][key]["state"])
            np.testing.assert_array_equal(group["cov"], snap_b["groups"][key]["cov"])

    def test_restore_merges_shard_states(self, small_build):
        """Replicas share one fn: sequential restores must union, not clobber."""
        layers = _region_layers(small_build)
        shard_a = _estimator(small_build)
        shard_b = _estimator(small_build)
        for regions in layers:
            for t in regions:
                (shard_a if t.specimen.endswith("-0") else shard_b)(t)

        merged = _estimator(small_build)
        merged.restore_state(shard_a.snapshot_state())
        merged.restore_state(shard_b.snapshot_state())
        snap = merged.snapshot_state()
        assert set(snap["groups"]) == {
            (small_build.config.job_id, f"region-{i}-{j}")
            for i in range(2)
            for j in range(2)
        }
        # counters are whole-group totals -> max of the shards, not the sum
        assert merged.frames_processed == max(
            shard_a.frames_processed, shard_b.frames_processed
        )


class TestReshard:
    def test_split_follows_route_and_reunites(self, small_build):
        fn = _estimator(small_build)
        for regions in _region_layers(small_build):
            for t in regions:
                fn(t)
        snap = fn.snapshot_state()

        def route(key):
            return 0 if key[1].endswith("-0") else 1

        shards = fn.reshard_state([snap], 2, route)
        assert len(shards) == 2
        for i, shard in enumerate(shards):
            assert all(route(key) == i for key in shard["groups"])
        assert shards[0]["frames_processed"] == fn.frames_processed
        assert shards[1]["frames_processed"] == 0

        reunited = _estimator(small_build)
        for shard in shards:
            reunited.restore_state(shard)
        snap2 = reunited.snapshot_state()
        assert set(snap2["groups"]) == set(snap["groups"])
        for key, group in snap["groups"].items():
            np.testing.assert_array_equal(
                group["state"], snap2["groups"][key]["state"]
            )
            np.testing.assert_array_equal(group["cov"], snap2["groups"][key]["cov"])

    def test_reshard_skips_missing_shard_states(self, small_build):
        fn = _estimator(small_build)
        for t in _region_layers(small_build)[0]:
            fn(t)
        shards = fn.reshard_state(
            [fn.snapshot_state(), None], 1, lambda key: 0
        )
        assert len(shards) == 1
        assert set(shards[0]["groups"]) == set(fn.snapshot_state()["groups"])


class TestPredictiveAlerts:
    def test_alert_targets_next_layer_and_dedups(self, small_build):
        dog = QoSWatchdog()
        fn = _estimator(
            small_build, overheat_threshold=0.0, watchdog=dog, lead_time_s=3.0
        )
        regions = _region_layers(small_build)[0]
        t = regions[0]
        fn(t)
        alerts = dog.predictive_alerts()
        assert len(alerts) == 1
        alert = alerts[0]
        # the forecast is for the layer about to print: t.layer + 1
        assert alert.layer == t.layer + 1
        assert alert.category == PREDICTIVE_CATEGORY
        assert alert.specimen == t.specimen
        assert alert.lead_time_s == 3.0
        assert alert.latency_s == 0.0
        assert alert.threshold == 0.0
        assert alert.predicted_value > 0.0
        assert "predictive" in alert.format()

        # same (job, layer, source) again -> counted, but no second alert
        fresh = _estimator(
            small_build, overheat_threshold=0.0, watchdog=dog, lead_time_s=3.0
        )
        fresh(t)
        assert len(dog.predictive_alerts()) == 1
        assert dog.predictive_events == 2

    def test_no_alert_without_threshold(self, small_build):
        dog = QoSWatchdog()
        fn = _estimator(small_build, watchdog=dog)
        for t in _region_layers(small_build)[0]:
            fn(t)
        assert dog.predictive_alerts() == []
        assert dog.predictive_events == 0

    def test_cool_forecast_stays_quiet(self, small_build):
        dog = QoSWatchdog()
        fn = _estimator(small_build, overheat_threshold=1e6, watchdog=dog)
        for t in _region_layers(small_build)[0]:
            fn(t)
        assert dog.predictive_alerts() == []


class TestPartition:
    def test_regions_tile_the_grid(self, small_build):
        record = small_build.records[0]
        regions = PARTITION(_fused_tuple(record))
        assert [t.specimen for t in regions] == [
            f"region-{i}-{j}" for i in range(2) for j in range(2)
        ]
        reassembled = np.full_like(record.measured_temp_cells, np.nan)
        for t in regions:
            (r0, r1), (c0, c1) = PARTITION.region_bounds(
                int(t.specimen.split("-")[1]),
                int(t.specimen.split("-")[2]),
                record.measured_temp_cells.shape,
            )
            reassembled[r0:r1, c0:c1] = t.payload["temp_frame"]
        np.testing.assert_array_equal(
            reassembled[~np.isnan(record.measured_temp_cells)],
            record.measured_temp_cells[~np.isnan(record.measured_temp_cells)],
        )

    def test_rejects_degenerate_grid(self):
        with pytest.raises(ValueError):
            PartitionThermalRegions(0, 2)
