"""Integration: kill the full Alg. 1 pipeline mid-build and recover it.

The acceptance bar for the recovery subsystem: after a crash following at
least two committed checkpoints, a recovered run must report, for every
(layer, specimen), the same per-cell event counts and the same cluster
sets as an uninterrupted oracle run.
"""

import time

import pytest

from repro.core import (
    DeployConfig,
    RecoveryConfig,
    Strata,
    UseCaseConfig,
    build_use_case,
    calibrate_job,
    specimen_regions_px,
)
from repro.kvstore.memory import MemoryStore
from repro.recovery import ChaosInjector, CheckpointCoordinator, RecoveryCoordinator
from tests.conftest import TEST_IMAGE_PX

CELL_EDGE = 5
WINDOW = 4


def _normalize_cluster(cluster: dict) -> tuple:
    """Codec-stable view of one cluster summary (tuples vs lists)."""
    return (
        cluster["size"],
        tuple(round(c, 6) for c in cluster["centroid"]),
        tuple(cluster["layers"]),
        round(cluster["volume_mm3"], 9),
    )


def signature(results) -> list[tuple]:
    """Per-result identity: metadata + event count + full cluster set."""
    return sorted(
        (
            t.job,
            t.layer,
            t.specimen,
            t.payload["num_events"],
            tuple(sorted(_normalize_cluster(c) for c in t.payload["clusters"])),
        )
        for t in results
    )


def exact_payloads(results) -> dict[tuple, tuple]:
    """(layer, specimen) -> the whole correlate payload, nothing rounded:
    every float of every summary and the bytes of the cluster image."""
    return {
        (t.layer, t.specimen): (
            t.payload["num_events"],
            t.payload["num_clusters"],
            tuple(
                tuple(tuple(v) if isinstance(v, (list, tuple)) else v for v in c.values())
                for c in t.payload["clusters"]
            ),
            None
            if "cluster_image" not in t.payload
            else (t.payload["cluster_image"].shape, t.payload["cluster_image"].tobytes()),
        )
        for t in results
    }


def _paced(records, delay):
    for record in records:
        time.sleep(delay)
        yield record


def _build(strata, layer_records, reference_images, test_job, delay=0.0):
    config = UseCaseConfig(
        image_px=TEST_IMAGE_PX, cell_edge_px=CELL_EDGE, window_layers=WINDOW,
        render_cluster_image=True,
    )
    calibrate_job(
        strata.kv, test_job.job_id, reference_images, CELL_EDGE,
        regions=specimen_regions_px(test_job.specimens, TEST_IMAGE_PX),
    )
    ot = _paced(layer_records, delay) if delay else iter(layer_records)
    pp = _paced(layer_records, delay) if delay else iter(layer_records)
    return build_use_case(ot, pp, config, strata=strata, checkpointable=True)


@pytest.fixture(scope="module")
def oracle_results(layer_records, reference_images, test_job):
    strata = Strata(engine_mode="threaded")
    pipeline = _build(strata, layer_records, reference_images, test_job)
    strata.deploy()
    return pipeline.sink.results


@pytest.fixture(scope="module")
def oracle_signature(oracle_results):
    return signature(oracle_results)


def test_crash_after_two_checkpoints_recovers_identically(
    layer_records, reference_images, test_job, oracle_signature, oracle_results
):
    ckpt_store = MemoryStore()

    # -- run 1: checkpoint twice, then die mid-build --------------------------
    strata = Strata(engine_mode="threaded")
    pipeline = _build(
        strata, layer_records, reference_images, test_job, delay=0.35
    )
    coordinator = CheckpointCoordinator(ckpt_store, retain=3)
    strata.start(DeployConfig(recovery=RecoveryConfig(checkpointer=coordinator)))
    epochs = 0
    deadline = time.monotonic() + 60
    while epochs < 2 and time.monotonic() < deadline:
        coordinator.trigger(timeout=15.0)
        epochs += 1
    assert epochs >= 2, "need at least two committed checkpoints before the kill"
    chaos = ChaosInjector(
        strata._engine, lambda: len(pipeline.sink.results) >= 6, timeout=60.0
    ).start()
    assert chaos.join(timeout=90.0), "chaos kill did not fire"
    partial = signature(pipeline.sink.results)
    assert len(partial) < len(oracle_signature), "crash came too late to matter"

    # -- run 2: fresh pipeline, recover from the newest checkpoint ------------
    strata2 = Strata(engine_mode="threaded")
    pipeline2 = _build(strata2, layer_records, reference_images, test_job)
    recovery = RecoveryCoordinator(ckpt_store)
    strata2.deploy(DeployConfig(recovery=RecoveryConfig(recover_from=recovery)))
    assert recovery.report is not None
    assert recovery.report.epoch == max(coordinator.completed_epochs)
    assert recovery.report.sources_restored  # both collectors rewound

    recovered = signature(pipeline2.sink.results)
    # The recovered run must close the gap exactly: everything the oracle
    # reported, nothing extra, no duplicates (DedupSink absorbs replays).
    assert sorted(set(partial) | set(recovered)) == oracle_signature
    assert len(recovered) == len(set(recovered)), "duplicate results delivered"
    # The recovered correlator starts with no kept window: it refills from
    # the restored events and must report what the uninterrupted run's
    # long-lived windows did, to the last bit.
    want = exact_payloads(oracle_results)
    assert any(clusters and image for _, _, clusters, image in want.values())
    for run in (pipeline.sink.results, pipeline2.sink.results):
        for key, payload in exact_payloads(run).items():
            assert payload == want[key], key


def test_recovered_run_latency_state_restored(
    layer_records, reference_images, test_job
):
    """Sink-side latency samples checkpointed before the crash are part of
    the restored state, so post-recovery reports span the whole build."""
    ckpt_store = MemoryStore()
    strata = Strata(engine_mode="threaded")
    pipeline = _build(
        strata, layer_records, reference_images, test_job, delay=0.35
    )
    coordinator = CheckpointCoordinator(ckpt_store)
    strata.start(DeployConfig(recovery=RecoveryConfig(checkpointer=coordinator)))
    coordinator.trigger(timeout=15.0)
    chaos = ChaosInjector(
        strata._engine, lambda: len(pipeline.sink.results) >= 3, timeout=60.0
    ).start()
    assert chaos.join(timeout=90.0)

    strata2 = Strata(engine_mode="threaded")
    pipeline2 = _build(strata2, layer_records, reference_images, test_job)
    strata2.deploy(
        DeployConfig(
            recovery=RecoveryConfig(recover_from=RecoveryCoordinator(ckpt_store))
        )
    )
    expected = len(layer_records) * len(test_job.specimens)
    assert len(pipeline2.sink.results) == expected
    assert len(pipeline2.sink.latency.samples()) >= len(pipeline2.sink.results)
