"""End-to-end thermal workloads: forecast + reconstruction pipelines.

Deploys both pipelines on a threaded Strata and checks the contract the
benchmarks and examples rely on: every layer yields one result per
region (forecast) or one per plate (reconstruction), the plan compiler
picks the vectorized mode for the estimator/feature chains, the compiled
plan emits what the graph as declared emits — however many layers reach
a chain in one run — the power spike raises predictive QoS alerts ahead
of the breach, and the fleet runner treats both workloads as
deterministic first-class kinds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.am.scanpath import suggest_overheat_threshold
from repro.analysis import meltpool_cell_stats
from repro.core import DeployConfig, Strata
from repro.obs.watchdog import PREDICTIVE_CATEGORY, QoSWatchdog
from repro.spe import CollectingSink
from repro.spe.stream import TupleBatch
from repro.thermal import (
    ThermalPipelineConfig,
    build_forecast_pipeline,
    build_reconstruction_pipeline,
    calibrate_thermal_job,
)

from .conftest import small_build_config

REGIONS = 4


def _run_forecast(build, *, watchdog=None, plan=None, threshold=None):
    config = ThermalPipelineConfig()
    config.overheat_threshold = threshold
    strata = Strata(engine_mode="threaded")
    pipeline = build_forecast_pipeline(
        iter(build.records),
        iter(build.records),
        build.config,
        config,
        strata=strata,
        watchdog=watchdog,
    )
    calibrate_thermal_job(strata.kv, build, laser=False)
    strata.deploy(DeployConfig(plan=plan))
    return pipeline


def _forecast_keys(results):
    return sorted(
        (
            t.job,
            t.layer,
            t.specimen,
            t.payload["forecast_mean"],
            t.payload["forecast_max"],
            t.payload["filtered_mean"],
            t.payload["innovation_rmse"],
            t.payload["realized_rmse"],
        )
        for t in results
    )


class TestForecastPipeline:
    def test_one_result_per_layer_and_region(self, small_build):
        pipeline = _run_forecast(small_build)
        results = pipeline.sink.results
        assert len(results) == small_build.config.layers * REGIONS
        layers = {t.layer for t in results}
        assert layers == set(range(small_build.config.layers))
        for t in results:
            payload = t.payload
            assert payload["forecast"].shape == (8, 8)
            assert payload["dropped_cells"] == 0  # no dropout in this build
            if t.layer == 0:
                assert payload["realized_rmse"] == -1.0  # no prior forecast
            else:
                assert payload["realized_rmse"] >= 0.0

    def test_forecast_beats_sensor_noise(self, small_build):
        """One-layer-ahead forecasts track the measurements within noise."""
        pipeline = _run_forecast(small_build)
        realized = [
            t.payload["realized_rmse"]
            for t in pipeline.sink.results
            if t.payload["realized_rmse"] >= 0
        ]
        sensor_std = small_build.config.thermal.sensor_var**0.5
        assert sum(realized) / len(realized) < 2.0 * sensor_std

    def test_estimator_chain_compiles_vectorized(self, small_build):
        pipeline = _run_forecast(small_build)
        explain = str(pipeline.strata.explain())
        assert "mode=vectorized" in explain
        assert "detect:forecast" in explain

    def test_plan_on_matches_plan_off(self, small_build):
        declared = _run_forecast(small_build)
        compiled = _run_forecast(small_build, plan=True)
        assert "fused" not in str(declared.strata.explain(None))
        assert _forecast_keys(declared.sink.results) == _forecast_keys(
            compiled.sink.results
        )


class TestPredictiveAlerts:
    def test_spike_raises_alerts_before_the_breach(self, spike_build):
        dog = QoSWatchdog()
        threshold = suggest_overheat_threshold(spike_build)
        pipeline = _run_forecast(spike_build, watchdog=dog, threshold=threshold)
        assert len(pipeline.sink.results) == spike_build.config.layers * REGIONS

        alerts = dog.predictive_alerts()
        assert alerts, "the seeded power spike must raise predictive alerts"
        spike_start, spike_end = spike_build.config.spike_layers
        for alert in alerts:
            assert alert.category == PREDICTIVE_CATEGORY
            assert alert.lead_time_s == ThermalPipelineConfig().lead_time_s
            assert alert.predicted_value > alert.threshold == threshold
            # alerts land at/after the first spiked layer, and the filter's
            # thermal memory decays within a few layers after the spike ends
            assert spike_start <= alert.layer <= spike_end + 2
        # the first spiked layer is forecast from the previous layer's
        # plan -- the alert arrives before any spiked heat is deposited
        assert min(alert.layer for alert in alerts) == spike_start

    def test_quiet_without_threshold(self, spike_build):
        dog = QoSWatchdog()
        _run_forecast(spike_build, watchdog=dog, threshold=None)
        assert dog.predictive_alerts() == []


class TestReconstructionPipeline:
    @pytest.fixture(scope="class")
    def pipeline(self):
        from repro.am.scanpath import synthesize_thermal_build

        build = synthesize_thermal_build(
            small_build_config(job_id="reconstruct-test", drift_pct=0.03)
        )
        strata = Strata(engine_mode="threaded")
        pipeline = build_reconstruction_pipeline(
            iter(build.records), build.config, strata=strata
        )
        calibrate_thermal_job(strata.kv, build)
        strata.deploy()
        pipeline.build = build
        return pipeline

    def test_one_estimate_per_layer(self, pipeline):
        results = pipeline.sink.results
        assert {t.layer for t in results} == set(
            range(pipeline.build.config.layers)
        )
        for t in results:
            assert t.payload["power_w_hat"] > 0
            assert t.payload["speed_mm_s_hat"] > 0

    def test_recovers_hidden_actual_parameters(self, pipeline):
        actual = {
            r.layer: (r.actual_power_w, r.actual_speed_mm_s)
            for r in pipeline.build.records
        }
        p_errs, v_errs = [], []
        for t in pipeline.sink.results:
            power, speed = actual[t.layer]
            p_errs.append(abs(t.payload["power_w_hat"] - power) / power)
            v_errs.append(abs(t.payload["speed_mm_s_hat"] - speed) / speed)
        assert sum(p_errs) / len(p_errs) < 0.08
        assert sum(v_errs) / len(v_errs) < 0.12

    def test_feature_chain_compiles_vectorized(self, pipeline):
        assert "mode=vectorized" in str(pipeline.strata.explain())


def _in_runs_of(collector_cls, n):
    """``collector_cls`` handing the scheduler its tuples ``n`` per run."""

    class Framed(collector_cls):
        def __iter__(self):
            run = TupleBatch()
            for t in super().__iter__():
                run.append(t)
                if len(run) == n:
                    yield run
                    run = TupleBatch()
            if run:
                yield run

    return Framed


class TestFramingIndependence:
    """Under ``plan=True`` a payload must not depend on how many layers
    reached the chain in one run, and the kernel must do the work however
    they arrive."""

    @pytest.fixture(scope="class")
    def build(self):
        from repro.am.scanpath import synthesize_thermal_build

        return synthesize_thermal_build(small_build_config(job_id="framing-test"))

    @staticmethod
    def _reconstruct(build, layers_per_run):
        """(features per layer, kernel calls) of one plan=True deployment."""
        from repro.thermal import collectors, features, pipelines

        kernel_calls = []

        def counting_kernel(image, cell_edge_px, melt_threshold):
            kernel_calls.append(image.shape)
            return meltpool_cell_stats(image, cell_edge_px, melt_threshold)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(features, "meltpool_cell_stats", counting_kernel)
            if layers_per_run > 1:
                patch.setattr(
                    pipelines,
                    "MeltPoolCollector",
                    _in_runs_of(collectors.MeltPoolCollector, layers_per_run),
                )
            strata = Strata(engine_mode="threaded")
            build_reconstruction_pipeline(
                iter(build.records), build.config, strata=strata
            )
            tap = strata.deliver("melt-features", CollectingSink("features"))
            calibrate_thermal_job(strata.kv, build)
            strata.deploy(DeployConfig(plan=True))
        return {t.layer: t.payload for t in tap.results}, kernel_calls

    @pytest.fixture(scope="class")
    def reconstructed(self, build):
        return self._reconstruct(build, 1), self._reconstruct(build, 2)

    def test_the_kernel_does_the_work_however_layers_arrive(
        self, build, reconstructed
    ):
        (singles, single_calls), (pairs, pair_calls) = reconstructed
        layers = build.config.layers
        assert sorted(singles) == sorted(pairs) == list(range(layers))
        # once per layer: no layer went down a per-pixel Python loop
        assert len(single_calls) == len(pair_calls) == layers

    def test_reconstruction_features(self, build, reconstructed):
        (singles, _), (pairs, _) = reconstructed
        for record in build.records:
            alone, paired = singles[record.layer], pairs[record.layer]
            total, peak, melt = meltpool_cell_stats(
                record.meltpool_image,
                build.config.cell_edge_px,
                build.config.optics.melt_threshold,
            )
            for key, kernel in (
                ("cell_total", total),
                ("cell_peak", peak),
                ("cell_melt_fraction", melt),
            ):
                assert np.array_equal(alone[key], paired[key]), key
                assert np.array_equal(alone[key], kernel), key
            for key in ("log_peak", "log_dose", "melt_fraction"):
                assert alone[key] == paired[key], key

    def test_a_lone_frame_equals_its_row_in_a_block(self, build):
        """The function-level statement: ``__call__`` is ``process_block``
        over one row (the pipeline above cuts every run at punctuation, so
        only a direct call puts two frames in one block)."""
        from repro.spe.columnar import ColumnarBlock
        from repro.thermal import ExtractMeltPoolFeatures
        from repro.thermal.collectors import MeltPoolCollector

        def extractor():
            return ExtractMeltPoolFeatures(
                cell_edge_px=build.config.cell_edge_px,
                px_per_mm=build.config.px_per_mm,
                melt_threshold=build.config.optics.melt_threshold,
                top_k=build.config.optics.top_k,
            )

        frames = [
            t.derive(specimen="plate", portion="whole")
            for t in MeltPoolCollector(build.records[:2])
        ]
        alone = [extractor()(t) for t in frames]
        together = extractor().process_block(ColumnarBlock.from_tuples(frames))
        for lone, row in zip(alone, together.to_tuples()):
            for key in ("cell_total", "cell_peak", "cell_melt_fraction"):
                assert np.array_equal(lone.payload[key], row.payload[key]), key
            for key in ("log_peak", "log_dose", "melt_fraction"):
                assert lone.payload[key] == row.payload[key], key

    def _forecast(self, build, monkeypatch, layers_per_run, plan=True):
        from repro.thermal import collectors, pipelines

        if layers_per_run > 1:
            for name in ("ThermalFrameCollector", "ScanPlanCollector"):
                monkeypatch.setattr(
                    pipelines,
                    name,
                    _in_runs_of(getattr(collectors, name), layers_per_run),
                )
        pipeline = _run_forecast(build, plan=plan)
        return {
            (t.layer, t.specimen): t.payload["forecast"]
            for t in pipeline.sink.results
        }

    def test_forecast_grid(self, small_build, monkeypatch):
        declared = self._forecast(small_build, monkeypatch, 1, plan=None)
        singles = self._forecast(small_build, monkeypatch, 1)
        pairs = self._forecast(small_build, monkeypatch, 2)
        assert len(singles) == small_build.config.layers * REGIONS
        assert sorted(singles) == sorted(pairs) == sorted(declared)
        for key, grid in singles.items():
            assert np.array_equal(grid, pairs[key]), key
            assert np.array_equal(grid, declared[key]), key


class TestFleetWorkloads:
    def test_thermal_kinds_are_registered(self):
        from repro.fleet.runner import WORKLOAD_KINDS, resolve_workload

        assert "forecast" in WORKLOAD_KINDS and "reconstruct" in WORKLOAD_KINDS
        with pytest.raises(ValueError):
            resolve_workload({"kind": "annealing"})

    @pytest.mark.parametrize("kind", ["forecast", "reconstruct"])
    def test_run_standalone_is_deterministic(self, kind):
        from repro.fleet.runner import run_standalone

        spec = {
            "kind": kind,
            "name": f"{kind}-oracle",
            "layers": 4,
            "image_px": 48,
            "window": 4,
            "seed": 7,
        }
        first = run_standalone(dict(spec))
        second = run_standalone(dict(spec))
        assert first and sorted(map(tuple, first)) == sorted(map(tuple, second))
