"""The job runner: one thread driving one tenant job end to end.

A runner owns everything single-job: its own :class:`~repro.core.api.Strata`
instance (own KV store, own broker — tenants never share pipeline state),
its own :class:`~repro.obs.context.ObsContext` (so every metric and QoS
alert is attributable to exactly one job), and the workload pipeline built
from the submitted spec. The service holds one runner per RUNNING job and
routes lifecycle calls (cancel, scrape) at it.

Workload specs are plain dicts so they survive the KV store and the HTTP
API. Four kinds ship today — ``thermal`` (Alg. 1 defect detection),
``streaks`` (the recoater-streak use case), ``forecast`` (streaming
thermal state estimation) and ``reconstruct`` (laser-parameter
reconstruction) — all fully deterministic in their ``seed``, which is
what makes the fleet's divergence gate (same spec in-fleet and
standalone must yield identical results) checkable.

A ``thermal`` job's Alg. 1 thresholds and a ``reconstruct`` job's laser
fit are pure functions of a few spec fields: the service computes each
once per key in its own store, and every job gets a copy in its own.

The CLI's workload verbs build through :func:`build_pipeline` too; its
live and paced verbs take their job, renderer and Alg. 1 config from
:func:`workload_job` and :func:`alg1_config`.
"""

from __future__ import annotations

import hashlib
import math
import threading
import time
from dataclasses import replace
from typing import Any, Callable

from ..am import BuildDataset, OTImageRenderer, make_job, suggest_overheat_threshold
from ..analysis.thresholds import calibrate_thresholds, threshold_key
from ..core import (
    DeployConfig,
    Strata,
    UseCaseConfig,
    build_streak_use_case,
    build_use_case,
    specimen_regions_px,
)
from ..kvstore.api import KVStore
from ..kvstore.memory import MemoryStore
from ..obs.context import ObsContext
from ..obs.registry import MetricsSnapshot
from ..spe.errors import EngineStateError
from . import registry as states
from .errors import FleetError
from .registry import JobRegistry

#: workload spec defaults — small enough that a job completes in seconds
WORKLOAD_DEFAULTS: dict[str, Any] = {
    "kind": "thermal",
    "name": "fleet-job",
    "image_px": 160,
    "layers": 6,
    "cell_edge": 8,
    "window": 4,
    "seed": 7,
    "defect_rate": 0.55,
    "streak_rate": 12.0,
}

WORKLOAD_KINDS = ("thermal", "streaks", "forecast", "reconstruct")

#: numeric spec fields: (type, least valid value)
_NUMERIC_FIELDS: dict[str, tuple[type, float]] = {
    "image_px": (int, 16), "layers": (int, 1), "cell_edge": (int, 1),
    "window": (int, 1), "seed": (int, 0),
    "defect_rate": (float, 0.0), "streak_rate": (float, 0.0),
}

#: where the fleet keeps calibrations; bump the version whenever the code
#: that computes one changes, or a kept ``--state-dir`` serves stale ones
CALIBRATION_PREFIX = "fleet/calibration/v1"


def resolve_workload(spec: dict[str, Any] | None) -> dict[str, Any]:
    """Validate a submitted workload spec and fill in the defaults.

    Numeric fields come back as ``int``/``float``, so ``"7"`` and ``7``
    name the same job and the same calibration key.
    """
    spec = dict(spec or {})
    unknown = set(spec) - set(WORKLOAD_DEFAULTS)
    if unknown:
        raise ValueError(
            f"unknown workload key(s): {', '.join(sorted(unknown))}; "
            f"expected {', '.join(sorted(WORKLOAD_DEFAULTS))}"
        )
    resolved = {**WORKLOAD_DEFAULTS, **spec}
    if resolved["kind"] not in WORKLOAD_KINDS:
        raise ValueError(
            f"workload kind must be one of {', '.join(WORKLOAD_KINDS)}, "
            f"got {resolved['kind']!r}"
        )
    for key, (kind, least) in _NUMERIC_FIELDS.items():
        value = resolved[key]
        try:
            number = kind(value)
            valid = (
                not isinstance(value, bool)
                and (number == value or not isinstance(value, float))  # not 7.5
                and least <= number < math.inf
            )
        except (TypeError, ValueError, OverflowError):
            valid = False
        if not valid:
            expected = "an integer" if kind is int else "a number"
            raise ValueError(f"workload.{key} must be {expected} >= {least}, got {value!r}")
        resolved[key] = number
    return resolved


def _calibrated(
    calibrations: KVStore,
    on_calibration: Callable[[str], None] | None,
    name: str,
    compute: Callable[..., dict[str, Any]],
    *inputs: Any,
) -> dict[str, Any]:
    """``compute(*inputs)``, stored under a key of ``inputs`` on first use.

    ``compute`` sees nothing but the key's inputs, so the stored payload is
    what any job with equal inputs would compute; two jobs that miss at
    once both compute it and store byte-equal payloads.
    """
    digest = hashlib.sha256(repr(inputs).encode()).hexdigest()
    key = f"{CALIBRATION_PREFIX}/{name}/{digest}"
    payload = calibrations.get(key)
    outcome = "reused"
    if payload is None:
        payload, outcome = compute(*inputs), "computed"
        calibrations.put(key, payload)
    if on_calibration is not None:
        on_calibration(outcome)
    return payload


def strata_for(deploy: DeployConfig, **kwargs: Any) -> Strata:
    """A threaded Strata (``kwargs``: ``obs``, ``store``) for ``deploy``: the
    one place that picks connectors, pub/sub where ``dist`` cuts stages."""
    mode = "pubsub" if deploy.dist is not None else "direct"
    return Strata(engine_mode="threaded", connector_mode=mode, **kwargs)


def workload_job(workload: dict[str, Any]):
    """The simulated print job a ``thermal``/``streaks`` workload monitors,
    and the OT renderer that images its layers."""
    job = make_job(
        workload["name"],
        seed=workload["seed"],
        defect_rate_per_stack=workload["defect_rate"],
        streak_rate_per_100_layers=(
            workload["streak_rate"] if workload["kind"] == "streaks" else 0.0
        ),
    )
    return job, OTImageRenderer(image_px=workload["image_px"], seed=workload["seed"])


def alg1_config(
    strata: Strata,
    workload: dict[str, Any],
    job,
    calibrations: KVStore,
    on_calibration: Callable[[str], None] | None = None,
) -> UseCaseConfig:
    """A ``thermal`` workload's Alg. 1 config, with ``job``'s thresholds
    stored in ``strata.kv`` (taken from ``calibrations``)."""
    config = UseCaseConfig(
        image_px=workload["image_px"],
        cell_edge_px=workload["cell_edge"],
        window_layers=workload["window"],
    )
    thresholds = _calibrated(
        calibrations, on_calibration, "thresholds", _reference_thresholds,
        config.image_px, workload["seed"], config.cell_edge_px,
    )
    strata.kv.put(threshold_key(job.job_id), thresholds)
    return config


def _thermal_build(workload: dict[str, Any]):
    """Synthesize the deterministic build the two thermal kinds stream."""
    from ..am.scanpath import Rect, ThermalBuildConfig, synthesize_thermal_build

    # derive the plate from image_px, snapped so the grid divides evenly:
    # region must be a multiple of cell_mm for integer cells, and the
    # melt image (2 px/mm) is then a multiple of the 3-px cell edge
    cell_mm = 1.5
    region_mm = max(18.0, cell_mm * round(workload["image_px"] / 2.0 / cell_mm))
    s = region_mm / 60.0
    config = ThermalBuildConfig(
        job_id=workload["name"],
        layers=workload["layers"],
        region_mm=region_mm,
        cell_mm=cell_mm,
        parts=(
            Rect(5.0 * s, 5.0 * s, 27.0 * s, 55.0 * s),
            Rect(33.0 * s, 5.0 * s, 55.0 * s, 55.0 * s),
        ),
        seed=workload["seed"],
    )
    return synthesize_thermal_build(config)


def _build_thermal_pipeline(
    strata: Strata,
    workload: dict[str, Any],
    calibrations: KVStore,
    on_calibration: Callable[[str], None] | None,
):
    from ..thermal import (
        ThermalPipelineConfig,
        build_forecast_pipeline,
        build_reconstruction_pipeline,
        calibrate_thermal_job,
    )
    from ..thermal.model import laser_calibration_key

    build = _thermal_build(workload)
    config = ThermalPipelineConfig(window_layers=workload["window"])
    calibrate_thermal_job(strata.kv, build, laser=False)
    if workload["kind"] == "forecast":
        # alert on what this build's calm layers never reach, through the
        # Strata's own watchdog (none when the Strata runs unobserved)
        config.overheat_threshold = suggest_overheat_threshold(build)
        obs = strata.obs
        return build_forecast_pipeline(
            iter(build.records), iter(build.records), build.config, config,
            strata=strata, watchdog=None if obs is None else obs.watchdog,
        )
    pipeline = build_reconstruction_pipeline(
        iter(build.records), build.config, config, strata=strata
    )
    laser = _calibrated(
        calibrations, on_calibration, "laser", _laser_fit,
        replace(build.config, job_id="", layers=0),
    )
    strata.kv.put(laser_calibration_key(build.config.job_id), laser)
    return pipeline


def _laser_fit(machine) -> dict[str, Any]:
    """The laser inverse regression fitted on the machine's reference sweep."""
    from ..am.scanpath import synthesize_laser_calibration
    from ..thermal import fit_laser_calibration

    samples = synthesize_laser_calibration(machine)
    return fit_laser_calibration(
        samples, px_per_mm=machine.px_per_mm, top_k=machine.optics.top_k
    ).as_payload()


def _reference_thresholds(image_px: int, seed: int, cell_edge: int) -> dict[str, Any]:
    """Alg. 1 thresholds fitted on three layers of a defect-free build."""
    reference = make_job("reference", seed=1, defect_rate_per_stack=0.0)
    renderer = OTImageRenderer(image_px=image_px, seed=seed)
    images = [r.image for r in BuildDataset(reference, renderer).records(0, 3)]
    regions = specimen_regions_px(reference.specimens, image_px)
    return calibrate_thresholds(images, cell_edge, regions=regions).as_payload()


def build_pipeline(
    strata: Strata,
    workload: dict[str, Any],
    calibrations: KVStore,
    on_calibration: Callable[[str], None] | None = None,
):
    """Compose the resolved ``workload``'s pipeline on ``strata``; returns
    the pipeline (its ``sink`` holds the results).

    Every fleet job and every CLI workload verb (``quickstart``,
    ``replay``, ``streaks``, ``forecast``, ``reconstruct``) builds here.
    Calibrations come from ``calibrations`` (computed there on first use;
    ``on_calibration`` hears ``"computed"`` or ``"reused"``).
    """
    if workload["kind"] in ("forecast", "reconstruct"):
        return _build_thermal_pipeline(strata, workload, calibrations, on_calibration)
    job, renderer = workload_job(workload)
    records = list(BuildDataset(job, renderer).records(0, workload["layers"]))
    if workload["kind"] == "streaks":
        return build_streak_use_case(
            iter(records),
            iter(records),
            image_px=workload["image_px"],
            window_layers=workload["window"],
            strata=strata,
        )
    config = alg1_config(strata, workload, job, calibrations, on_calibration)
    return build_use_case(iter(records), iter(records), config, strata=strata)


def result_ids(workload: dict[str, Any], results: list) -> list[list[Any]]:
    """Order-independent result identities, the divergence-gate currency."""
    if workload["kind"] == "forecast":
        keys = [
            [
                t.job, t.layer, t.specimen,
                round(float(t.payload["forecast_mean"]), 6),
                round(float(t.payload["forecast_max"]), 6),
            ]
            for t in results
        ]
    elif workload["kind"] == "reconstruct":
        keys = [
            [
                t.job, t.layer, t.specimen,
                round(float(t.payload["power_w_hat"]), 6),
                round(float(t.payload["speed_mm_s_hat"]), 6),
            ]
            for t in results
        ]
    elif workload["kind"] == "streaks":
        keys = [
            [t.job, t.layer, t.specimen, len(t.payload.get("streaks", ()))]
            for t in results
        ]
    else:
        keys = [
            [
                t.job, t.layer, t.specimen,
                t.payload.get("num_events"), t.payload.get("num_clusters"),
            ]
            for t in results
        ]
    return sorted(keys)


def run_standalone(workload: dict[str, Any] | None = None) -> list[list[Any]]:
    """One job's expected results, computed outside the fleet.

    The oracle the fleet's divergence gate compares against: same spec,
    fresh single-tenant Strata, default deployment, and an empty
    calibration store, so every calibration is computed anew.
    """
    workload = resolve_workload(workload)
    strata = Strata(engine_mode="threaded")
    pipeline = build_pipeline(strata, workload, MemoryStore())
    strata.deploy()
    return result_ids(workload, pipeline.sink.results)


class JobRunner:
    """Drives one admitted job: RUNNING -> {COMPLETED, FAILED, CANCELLED}."""

    def __init__(
        self,
        record_id: str,
        registry: JobRegistry,
        workload: dict[str, Any],
        deploy: DeployConfig,
        calibrations: KVStore,
        on_calibration: Callable[[str], None] | None = None,
        on_done: Callable[["JobRunner"], None] | None = None,
    ) -> None:
        self.job_id = record_id
        self._registry = registry
        self._workload = workload
        self._cfg = deploy
        self._calibrations = calibrations
        self._on_calibration = on_calibration
        self._on_done = on_done
        self.obs: ObsContext | None = ObsContext()
        self._lock = threading.Lock()
        self._cancel = False
        self._started_engine = False
        self._strata: Strata | None = None
        self.final_snapshot: MetricsSnapshot | None = None
        self._thread = threading.Thread(
            target=self._run, name=f"fleet-job-{record_id}", daemon=True
        )

    # -- service-facing surface ---------------------------------------------

    def start(self) -> None:
        self._thread.start()

    def join(self, timeout: float | None = None) -> None:
        self._thread.join(timeout)

    @property
    def controller(self) -> Any | None:
        """The job's live ElasticController, for fleet bound lending."""
        strata = self._strata
        return strata.elastic if strata is not None else None

    def snapshot(self) -> MetricsSnapshot:
        """The job's metrics right now (final snapshot once terminal)."""
        obs = self.obs  # read once: _finish sets final_snapshot, then drops obs
        if obs is None:
            return self.final_snapshot
        return obs.snapshot()

    def cancel(self) -> None:
        """Request cancellation: stop the engine and drain its threads."""
        with self._lock:
            self._cancel = True
            started = self._started_engine
            strata = self._strata
        if self._cfg.dist is not None and started:
            raise FleetError(
                f"job {self.job_id!r} deployed distributed and runs to "
                "completion; cancel applies to in-process jobs"
            )
        if started and strata is not None:
            strata.stop()

    # -- the run ------------------------------------------------------------

    def _run(self) -> None:
        started = time.monotonic()
        summary: dict[str, Any] | None = None
        outcome = states.COMPLETED
        reason: str | None = None
        try:
            cfg = self._cfg
            strata = strata_for(cfg, obs=self.obs)
            sink = build_pipeline(
                strata, self._workload, self._calibrations, self._on_calibration
            ).sink
            with self._lock:
                if self._cancel:
                    self._finish(states.CANCELLED, "cancelled before launch", None)
                    return
                self._strata = strata
            self._registry.transition(self.job_id, states.RUNNING)
            if cfg.dist is not None:
                with self._lock:
                    self._started_engine = True
                strata.deploy(cfg)
            else:
                strata.start(cfg)
                with self._lock:
                    self._started_engine = True
                if self._cancel:  # cancel raced the launch
                    strata.stop()
                try:
                    strata.wait(timeout=600)
                except EngineStateError:
                    pass  # a concurrent cancel already reaped the engine
            wall = time.monotonic() - started
            ids = result_ids(self._workload, list(sink.results))
            layers = self._workload["layers"]
            summary = {
                "results": len(ids),
                "result_ids": ids,
                "wall_seconds": round(wall, 4),
                "images": layers,
                "images_per_second": round(layers / wall, 3) if wall > 0 else 0.0,
            }
            if self._cancel:
                outcome, reason = states.CANCELLED, "cancelled by request"
        except Exception as exc:
            if self._cancel:
                outcome, reason = states.CANCELLED, "cancelled by request"
            else:
                outcome, reason = states.FAILED, f"{type(exc).__name__}: {exc}"
        self._finish(outcome, reason, summary)

    def _finish(
        self, outcome: str, reason: str | None, summary: dict[str, Any] | None
    ) -> None:
        self.final_snapshot = self.obs.snapshot()
        # what a finished job keeps is its record and this snapshot; the
        # engine, KV store, build and sink results go with these two refs
        # (the obs collectors close over the engine). No self._lock here:
        # the cancelled-before-launch path calls _finish holding it.
        self._strata = None
        self.obs = None
        try:
            self._registry.transition(self.job_id, outcome, reason=reason, result=summary)
        except Exception:
            pass  # terminal-state race (e.g. cancel already recorded)
        if self._on_done is not None:
            self._on_done(self)
