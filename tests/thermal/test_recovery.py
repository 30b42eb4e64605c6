"""Fault tolerance & elasticity for the forecast pipeline.

Same acceptance bar as the Alg. 1 use case (see
``tests/recovery/test_crash_recovery.py``): a run killed after a
committed checkpoint, then recovered into a fresh pipeline, must close
the gap exactly — every (layer, region) forecast the oracle reported,
bit-identical summaries, no duplicates.  And an elastic deploy that
rescales the estimator mid-build must stay divergence-free against the
threaded oracle, which is what the estimator's ``reshard_state``
contract buys.
"""

from __future__ import annotations

import time

import pytest

from repro.am.scanpath import synthesize_thermal_build
from repro.core import DeployConfig, Strata
from repro.core.deploy import ElasticConfig, RecoveryConfig
from repro.kvstore.memory import MemoryStore
from repro.recovery import ChaosInjector, CheckpointCoordinator, RecoveryCoordinator
from repro.thermal import (
    ThermalPipelineConfig,
    build_forecast_pipeline,
    calibrate_thermal_job,
)

from .conftest import small_build_config

LAYERS = 10
REGIONS = 4


def signature(results) -> list[tuple]:
    """Exact-float per-result identity: any divergence fails equality."""
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


def _paced(records, delay):
    for record in records:
        time.sleep(delay)
        yield record


def _build_pipeline(strata, build, *, delay=0.0, checkpointable=False):
    config = ThermalPipelineConfig()
    frames = _paced(build.records, delay) if delay else iter(build.records)
    plans = _paced(build.records, delay) if delay else iter(build.records)
    pipeline = build_forecast_pipeline(
        frames, plans, build.config, config,
        strata=strata, checkpointable=checkpointable,
    )
    calibrate_thermal_job(strata.kv, build, laser=False)
    return pipeline


@pytest.fixture(scope="module")
def recovery_build():
    return synthesize_thermal_build(
        small_build_config(job_id="thermal-recovery", layers=LAYERS)
    )


@pytest.fixture(scope="module")
def oracle_signature(recovery_build):
    strata = Strata(engine_mode="threaded")
    pipeline = _build_pipeline(strata, recovery_build)
    strata.deploy()
    sig = signature(pipeline.sink.results)
    assert len(sig) == LAYERS * REGIONS
    return sig


def test_crash_after_checkpoint_recovers_identically(
    recovery_build, oracle_signature
):
    ckpt_store = MemoryStore()

    # -- run 1: checkpoint, then die mid-build ------------------------------
    strata = Strata(engine_mode="threaded")
    pipeline = _build_pipeline(
        strata, recovery_build, delay=0.35, checkpointable=True
    )
    coordinator = CheckpointCoordinator(ckpt_store, retain=3)
    strata.start(DeployConfig(recovery=RecoveryConfig(checkpointer=coordinator)))
    epochs = 0
    deadline = time.monotonic() + 60
    while epochs < 2 and time.monotonic() < deadline:
        coordinator.trigger(timeout=15.0)
        epochs += 1
    assert epochs >= 2, "need committed checkpoints before the kill"
    chaos = ChaosInjector(
        strata._engine, lambda: len(pipeline.sink.results) >= 8, timeout=60.0
    ).start()
    assert chaos.join(timeout=90.0), "chaos kill did not fire"
    partial = signature(pipeline.sink.results)
    assert len(partial) < len(oracle_signature), "crash came too late to matter"

    # -- run 2: fresh pipeline, recover from the newest checkpoint ----------
    strata2 = Strata(engine_mode="threaded")
    pipeline2 = _build_pipeline(strata2, recovery_build, checkpointable=True)
    recovery = RecoveryCoordinator(ckpt_store)
    strata2.deploy(DeployConfig(recovery=RecoveryConfig(recover_from=recovery)))
    assert recovery.report is not None
    assert recovery.report.epoch == max(coordinator.completed_epochs)
    assert recovery.report.sources_restored  # both collectors rewound

    recovered = signature(pipeline2.sink.results)
    # the union must close the gap exactly: per-cell Kalman state restored
    # bit-for-bit, replays absorbed by the DedupSink
    assert sorted(set(partial) | set(recovered)) == oracle_signature
    assert len(recovered) == len(set(recovered)), "duplicate results delivered"


def test_elastic_rescale_matches_threaded_oracle(
    recovery_build, oracle_signature
):
    strata = Strata(engine_mode="threaded", connector_mode="pubsub")
    pipeline = _build_pipeline(strata, recovery_build, delay=0.05)
    strata.deploy(
        DeployConfig(
            plan=True,
            elastic=ElasticConfig(
                max_parallelism=4, tick_s=0.05, cooldown_s=0.0
            ),
        )
    )
    assert signature(pipeline.sink.results) == oracle_signature
