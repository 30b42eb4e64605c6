"""Distributed runtime end-to-end: equivalence, restarts, failure paths."""

import threading
import time
import urllib.request

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
from repro.core.errors import DeploymentError
from repro.dist import DistConfig, DistCoordinator, DistError
from repro.obs import to_prometheus
from tests.conftest import TEST_IMAGE_PX, assert_families_grouped, keepalive_median_ms

CELL_EDGE = 5


def build(
    layer_records, reference_images, test_job, connector_mode="pubsub", ot_records=None
):
    config = UseCaseConfig(
        image_px=TEST_IMAGE_PX, cell_edge_px=CELL_EDGE, window_layers=4
    )
    strata = Strata(engine_mode="threaded", connector_mode=connector_mode)
    calibrate_job(
        strata.kv, test_job.job_id, reference_images, CELL_EDGE,
        regions=specimen_regions_px(test_job.specimens, TEST_IMAGE_PX),
    )
    pipeline = build_use_case(
        iter(layer_records) if ot_records is None else ot_records,
        iter(layer_records),
        config,
        strata=strata,
    )
    return strata, pipeline


def result_key(t):
    # cluster lists may arrive in a different within-layer order across
    # runs, so compare the order-insensitive result identity
    return (t.job, t.layer, t.specimen, t.payload["num_events"],
            t.payload["num_clusters"])


@pytest.fixture(scope="module")
def baseline(layer_records, reference_images, test_job):
    strata, pipeline = build(layer_records, reference_images, test_job)
    strata.deploy()
    return sorted(map(result_key, pipeline.sink.results))


def test_two_worker_deploy_equals_threaded(
    layer_records, reference_images, test_job, baseline
):
    strata, pipeline = build(layer_records, reference_images, test_job)
    report = strata.deploy(DeployConfig(dist=2))
    assert sorted(map(result_key, pipeline.sink.results)) == baseline
    dist = report.extra["dist"]
    assert len(dist["workers"]) == 2
    assert all(w["exitcode"] == 0 for w in dist["workers"].values())
    assert dist["restarts"] == 0 and dist["failure"] is None


def test_survives_worker_kill(
    layer_records, reference_images, test_job, baseline
):
    strata, pipeline = build(layer_records, reference_images, test_job)
    coordinator = DistCoordinator(
        strata.query, strata.broker, DistConfig(workers=2),
    )
    coordinator.start()

    def chaos():
        time.sleep(0.05)
        coordinator.workers[0].kill()

    threading.Thread(target=chaos, daemon=True).start()
    report = coordinator.run()
    assert sorted(map(result_key, pipeline.sink.results)) == baseline
    dist = report.extra["dist"]
    # the kill may race natural completion on fast machines; when it lands
    # mid-run, the restart must be recorded and absorbed
    if dist["restarts"]:
        assert dist["failure"] is None
        assert dist["workers"]["worker-0"]["incarnation"] >= 1


def test_worker_metrics_aggregated(layer_records, reference_images, test_job):
    strata, _ = build(layer_records, reference_images, test_job)
    coordinator = DistCoordinator(
        strata.query, strata.broker, DistConfig(workers=2),
    )
    report = coordinator.run()
    metrics = report.extra["worker_metrics"]
    assert set(metrics) == {"worker-0", "worker-1"}
    # workers processed tuples: their schedulers exported operator counters
    assert any(
        s.name == "spe_tuples_out_total" and s.value > 0
        for s in metrics["worker-0"].samples
    )
    merged = coordinator.cluster_snapshot()
    workers_seen = {s.label("worker") for s in merged.samples}
    assert {"worker-0", "worker-1"} <= workers_seen
    # two workers export the same families: the scrape must still hold each
    # family in one group
    assert_families_grouped(to_prometheus(merged))


def test_prometheus_scrape_endpoint(layer_records, reference_images, test_job):
    strata, _ = build(layer_records, reference_images, test_job)
    coordinator = DistCoordinator(
        strata.query, strata.broker,
        DistConfig(workers=2, scrape_port=0),
    )
    coordinator.start()
    try:
        host, port = coordinator.scrape_address
        deadline = time.monotonic() + 10
        body = ""
        while time.monotonic() < deadline:
            with urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=5
            ) as response:
                assert response.status == 200
                body = response.read().decode("utf-8")
            if 'worker="worker-0"' in body:
                break
            time.sleep(0.1)
        assert 'worker="worker-0"' in body
        # headers and body leave in one write, so a scraper that keeps its
        # connection open is not held ~40 ms per scrape by Nagle
        assert keepalive_median_ms(host, port, "/metrics") < 15.0
    finally:
        coordinator.run()


def test_permanent_worker_failure_raises(
    layer_records, reference_images, test_job
):
    strata, _ = build(layer_records, reference_images, test_job)
    coordinator = DistCoordinator(
        strata.query, strata.broker,
        DistConfig(workers=2, restart_limit=0),
    )
    coordinator.start()

    def chaos():
        time.sleep(0.05)
        for worker in coordinator.workers:
            worker.kill()

    threading.Thread(target=chaos, daemon=True).start()
    try:
        coordinator.run()
    except DistError as exc:
        assert "exited" in str(exc)
    else:
        # both kills raced completion: legal on a very fast run, but the
        # coordinator must then report a clean deployment
        assert coordinator.status()["failure"] is None


def test_distributed_requires_pubsub_mode(
    layer_records, reference_images, test_job
):
    strata, _ = build(
        layer_records, reference_images, test_job, connector_mode="direct"
    )
    with pytest.raises(DeploymentError, match="pubsub"):
        strata.deploy(DeployConfig(dist=2))


def test_distributed_rejects_checkpointer(
    layer_records, reference_images, test_job
):
    strata, _ = build(layer_records, reference_images, test_job)
    with pytest.raises(DeploymentError, match="crash recovery"):
        strata.deploy(
            DeployConfig(dist=2, recovery=RecoveryConfig(checkpointer=object()))
        )


def test_dist_config_resolve():
    assert DistConfig.resolve(None) is None
    assert DistConfig.resolve(False) is None
    assert DistConfig.resolve(True) == DistConfig()
    assert DistConfig.resolve(3).workers == 3
    config = DistConfig(workers=5)
    assert DistConfig.resolve(config) is config
    with pytest.raises(ValueError):
        DistConfig.resolve(0)
    with pytest.raises(TypeError):
        DistConfig.resolve("two")


def test_in_thread_run_stage_leaves_the_server_nothing_to_hold():
    """The ``strata-repro worker`` verb runs ``run_stage`` in its own
    thread and then returns: every producer and consumer connection the
    stage opened must be closed by then, and the slab leases charged to
    them returned — a forked worker hides a leak by dying, this one cannot."""
    import numpy as np

    from repro.core.connectors import PubSubReaderSource, PubSubWriterSink
    from repro.dist import cut_stages, run_stage
    from repro.net import BrokerServer
    from repro.pubsub import Broker
    from repro.spe import ListSource, Query, StreamTuple

    broker = Broker()
    image = np.ones((128, 128), dtype=np.float64)
    layers = [
        StreamTuple(tau=float(i), job="J", layer=i, payload={"image": image})
        for i in range(3)
    ]
    query = Query("q")
    query.add_source("src", ListSource("src", layers))
    query.add_sink("mid", PubSubWriterSink("w-mid", broker, "strata.mid"), ["src"])
    query.add_source("hop", PubSubReaderSource("r-mid", broker, "strata.mid"))
    query.add_sink("out", PubSubWriterSink("w-out", broker, "strata.out"), ["hop"])
    stages = cut_stages(query.build())
    assert len(stages) == 2 and not any(stage.terminal for stage in stages)
    with BrokerServer(
        broker, allow_pickle=True, transport="shm",
        transport_options={"slots": 16, "slab_bytes": 256 * 1024},
    ) as server:
        run_stage(stages, server.address, worker_name="in-thread", produce_batch=2)
        deadline = time.monotonic() + 5.0
        while server._conns and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not server._conns
        stats = server.transport.stats()
        assert stats["leased"] == 0 and stats["leases_reclaimed"] == 0
        got = [m.value for m in server.consumer("probe", ["strata.out"]).poll()]
    assert [t.layer for t in got[:-1]] == [0, 1, 2]  # then the sentinel
