"""Compose the two thermal workloads on a Strata instance.

Mirrors :func:`repro.core.usecase.build_use_case`: a builder per
pipeline plus calibration helpers that persist the shared model state in
the KV store before deploy.  Both builders accept an existing ``Strata``
so the workloads can share one broker and one store — the
overlapping-pipelines deployment of §6 and the fleet's multi-tenant
story — and both run unchanged under threaded, distributed (tcp/shm),
and elastic deploys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..am.scanpath import (
    ThermalBuild,
    ThermalBuildConfig,
    ThermalLayerRecord,
    synthesize_laser_calibration,
)
from ..kvstore.api import KVStore
from ..obs.watchdog import QoSWatchdog, RECOAT_GAP_SECONDS
from ..spe.sink import CollectingSink, Sink
from .collectors import MeltPoolCollector, ScanPlanCollector, ThermalFrameCollector
from .estimator import (
    EstimateThermalState,
    PartitionThermalRegions,
    ThermalForecastCorrelator,
)
from .features import ExtractMeltPoolFeatures
from .model import store_thermal_model
from .reconstruct import ReconstructLaserParameters, calibrate_laser_job

__all__ = [
    "ThermalPipelineConfig",
    "ThermalPipeline",
    "calibrate_thermal_job",
    "build_forecast_pipeline",
    "build_reconstruction_pipeline",
]


@dataclass
class ThermalPipelineConfig:
    """Tunables shared by the two thermal pipelines.

    Replica counts are not among them: the deployment's plan
    (:class:`~repro.spe.plan.PlanConfig`) replicates the keyed stages.
    """

    window_layers: int = 4
    region_rows: int = 2
    region_cols: int = 2
    overheat_threshold: float | None = None
    lead_time_s: float = RECOAT_GAP_SECONDS
    top_k: int = 64


@dataclass
class ThermalPipeline:
    """A composed thermal pipeline plus the handles tests/benches need."""

    strata: "object"
    sink: Sink
    build_config: ThermalBuildConfig
    config: ThermalPipelineConfig
    detect_fn: EstimateThermalState | ExtractMeltPoolFeatures
    correlator: ThermalForecastCorrelator | ReconstructLaserParameters = field(
        default=None
    )

    @property
    def frames_processed(self) -> int:
        return self.detect_fn.frames_processed


def calibrate_thermal_job(
    store: KVStore,
    build: ThermalBuild | ThermalBuildConfig,
    *,
    laser: bool = True,
) -> None:
    """Persist both pipelines' calibration state for the build's job.

    Stores the state-space model parameters (the estimator's calibrated
    machine model) and, unless ``laser=False``, fits + stores the laser
    inverse regression from a synthesized reference sweep.
    """
    config = build.config if isinstance(build, ThermalBuild) else build
    store_thermal_model(store, config.job_id, config.thermal)
    if laser:
        calibrate_laser_job(
            store,
            config.job_id,
            synthesize_laser_calibration(config),
            px_per_mm=config.px_per_mm,
            top_k=config.optics.top_k,
        )


def build_forecast_pipeline(
    frame_records: Iterable[ThermalLayerRecord],
    plan_records: Iterable[ThermalLayerRecord],
    build_config: ThermalBuildConfig,
    config: ThermalPipelineConfig | None = None,
    strata=None,
    sink: Sink | None = None,
    watchdog: QoSWatchdog | None = None,
    checkpointable: bool = False,
) -> ThermalPipeline:
    """Forecast workload: frames ⨝ plan → regions → Kalman → correlate.

    The caller must have stored the thermal model for the job in
    ``strata.kv`` (see :func:`calibrate_thermal_job`) before deploying.
    """
    from ..core.api import Strata

    if strata is None:
        strata = Strata()
    if config is None:
        config = ThermalPipelineConfig()
    if sink is None:
        sink = CollectingSink("thermal-expert")
    if checkpointable:
        from ..recovery.dedup import DedupSink

        if not isinstance(sink, DedupSink):
            sink = DedupSink(sink)
    strata.add_source(
        ThermalFrameCollector(frame_records), "thermal", checkpointable=checkpointable
    )
    strata.add_source(
        ScanPlanCollector(plan_records), "plan", checkpointable=checkpointable
    )
    strata.fuse("thermal", "plan", "thermal&plan")
    strata.partition(
        "thermal&plan",
        "region",
        PartitionThermalRegions(config.region_rows, config.region_cols),
    )
    estimator = EstimateThermalState(
        strata.kv,
        overheat_threshold=config.overheat_threshold,
        watchdog=watchdog,
        lead_time_s=config.lead_time_s,
    )
    strata.detect_event("region", "forecast", estimator)
    correlator = ThermalForecastCorrelator(config.overheat_threshold)
    strata.correlate_events(
        "forecast", "forecast-out", config.window_layers, correlator
    )
    strata.deliver("forecast-out", sink)
    return ThermalPipeline(
        strata=strata,
        sink=sink,
        build_config=build_config,
        config=config,
        detect_fn=estimator,
        correlator=correlator,
    )


def build_reconstruction_pipeline(
    records: Iterable[ThermalLayerRecord],
    build_config: ThermalBuildConfig,
    config: ThermalPipelineConfig | None = None,
    strata=None,
    sink: Sink | None = None,
    checkpointable: bool = False,
) -> ThermalPipeline:
    """Reconstruction workload: melt pool → features → invert per layer.

    The caller must have fitted the laser calibration for the job in
    ``strata.kv`` (see :func:`calibrate_thermal_job`) before deploying.
    """
    from ..core.api import Strata

    if strata is None:
        strata = Strata()
    if config is None:
        config = ThermalPipelineConfig()
    if sink is None:
        sink = CollectingSink("laser-expert")
    if checkpointable:
        from ..recovery.dedup import DedupSink

        if not isinstance(sink, DedupSink):
            sink = DedupSink(sink)
    strata.add_source(
        MeltPoolCollector(records), "meltpool", checkpointable=checkpointable
    )
    strata.partition("meltpool", "plate")
    extractor = ExtractMeltPoolFeatures(
        cell_edge_px=build_config.cell_edge_px,
        px_per_mm=build_config.px_per_mm,
        melt_threshold=build_config.optics.melt_threshold,
        top_k=build_config.optics.top_k,
    )
    strata.detect_event("plate", "melt-features", extractor)
    correlator = ReconstructLaserParameters(strata.kv)
    strata.correlate_events(
        "melt-features", "laser-out", config.window_layers, correlator
    )
    strata.deliver("laser-out", sink)
    return ThermalPipeline(
        strata=strata,
        sink=sink,
        build_config=build_config,
        config=config,
        detect_fn=extractor,
        correlator=correlator,
    )
