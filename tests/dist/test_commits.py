"""Dist workers commit their stages; the coordinator trims to the commits.

A worker cuts a checkpoint epoch every few layers and publishes it as one
record on its commit topic; a re-forked worker resumes from that record,
and the coordinator trims each connector topic below what its readers
committed. These tests hold the three promises that buys: what the
coordinator retains does not grow with the run, a restart resumes
mid-stream rather than from offset 0, and a crash at any step of the
protocol still converges on the in-process result, with no duplicate
delivered and no slab left behind.
"""

import multiprocessing
import os
import threading
import time

import pytest

from repro.am import LayerRecord
from repro.core import (
    Strata,
    UseCaseConfig,
    build_use_case,
    calibrate_job,
    specimen_regions_px,
)
from repro.dist import DistConfig, DistCoordinator
from repro.dist import commits as commits_module
from repro.dist.commits import commit_topic, record_positions
from repro.serde import decode_value
from tests.conftest import TEST_IMAGE_PX

from .test_worker_runtime import CELL_EDGE, result_key

#: 250 px float64 images are 500 KB each, so every OT payload takes a slab
SHM = dict(transport="shm", shm_slots=64, shm_slab_bytes=2 * 1024 * 1024)

#: seconds between layers: slow enough that the commit lag stays far inside
#: the 64-slot ring on a loaded box, fast enough to keep the runs short
PERIOD_S = 0.02


def _cycled(layer_records, total):
    """``total`` layers: the fixture's eight, repeated with fresh layer numbers."""
    base = len(layer_records)
    for i in range(total):
        rep, index = divmod(i, base)
        record = layer_records[index]
        yield record if rep == 0 else LayerRecord(
            job_id=record.job_id,
            layer=rep * base + record.layer,
            z_mm=rep * base * 0.04 + record.z_mm,
            image=record.image,
            parameters=record.parameters,
            truth_mask=record.truth_mask,
        )


def _paced(records, period_s):
    for record in records:
        time.sleep(period_s)
        yield record


def _build(layer_records, reference_images, test_job, layers, period_s=0.0):
    config = UseCaseConfig(image_px=TEST_IMAGE_PX, cell_edge_px=CELL_EDGE, window_layers=4)
    strata = Strata(engine_mode="threaded", connector_mode="pubsub")
    calibrate_job(
        strata.kv, test_job.job_id, reference_images, CELL_EDGE,
        regions=specimen_regions_px(test_job.specimens, TEST_IMAGE_PX),
    )
    records = list(_cycled(layer_records, layers))
    pipeline = build_use_case(
        _paced(records, period_s), _paced(records, period_s), config, strata=strata
    )
    return strata, pipeline


@pytest.fixture(scope="module")
def baselines(layer_records, reference_images, test_job):
    """In-process results per layer count, computed once each."""
    cache = {}

    def get(layers):
        if layers not in cache:
            strata, pipeline = _build(layer_records, reference_images, test_job, layers)
            strata.deploy()
            cache[layers] = sorted(map(result_key, pipeline.sink.results))
        return cache[layers]

    return get


def _retained(broker, topic):
    start, end = broker.offsets(topic, 0)
    return end - start


def _run_sampled(coordinator, broker, topics):
    """Run to completion; the most records each topic retained meanwhile."""
    peak = dict.fromkeys(topics, 0)
    done = threading.Event()

    def sample():
        while not done.wait(0.01):
            for topic in topics:
                if broker.has_topic(topic):
                    peak[topic] = max(peak[topic], _retained(broker, topic))

    sampler = threading.Thread(target=sample, daemon=True)
    sampler.start()
    try:
        report = coordinator.run()
    finally:
        done.set()
        sampler.join()
    return report, peak


def test_retention_spills_and_dedup_keys_do_not_grow_with_run_length(
    layer_records, reference_images, test_job, baselines
):
    """N layers, then 3N: the topics the workers read hold about one epoch
    of layers (never the whole run), the ring never spills, and the
    terminal reader forgets the keys its producer's commits make final."""
    short = 40
    topics = ["strata.OT", "strata.pp"]
    runs = {}
    for layers in (short, 3 * short):
        strata, pipeline = _build(
            layer_records, reference_images, test_job, layers, PERIOD_S
        )
        coordinator = DistCoordinator(
            strata.query, strata.broker, DistConfig(workers=2, produce_batch=8, **SHM)
        )
        report, peak = _run_sampled(coordinator, strata.broker, topics)
        assert sorted(map(result_key, pipeline.sink.results)) == baselines(layers)
        dist = report.extra["dist"]
        runs[layers] = {
            "peak": peak,
            "final": {t: _retained(strata.broker, t) for t in topics},
            "spilled": dist["transport"]["slabs_spilled"],
            "keys": dist["dedup_keys_local"],
        }
    small, large = runs[short], runs[3 * short]
    for topic in topics:
        assert large["final"][topic] == small["final"][topic] == 0
        # 2N more layers may not mean 2N more records held at any time
        assert large["peak"][topic] <= small["peak"][topic] + short // 2, runs
    assert large["spilled"] == small["spilled"] == 0, runs
    assert large["keys"] <= small["keys"] + short * 10, runs


def _latest_record(broker, stages):
    topic = commit_topic(stages)
    if not broker.has_topic(topic):
        return None
    start, end = broker.offsets(topic, 0)
    if end == start:
        return None
    return decode_value(broker.fetch(topic, 0, end - 1, 1)[0].value)


def test_restarted_worker_resumes_at_its_committed_positions(
    layer_records, reference_images, test_job, baselines
):
    """Kill worker-0 once its record commits read positions past 0: the
    re-forked worker restores from a record and its readers start there,
    not at the earliest offset — and the output still equals the
    in-process run, each verdict once."""
    layers = 60
    strata, pipeline = _build(layer_records, reference_images, test_job, layers, PERIOD_S)
    coordinator = DistCoordinator(
        strata.query, strata.broker, DistConfig(workers=2, produce_batch=8, **SHM)
    )
    coordinator.start()
    victim = coordinator.workers[0]
    killed_at: list[dict] = []

    def chaos():
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            record = _latest_record(strata.broker, victim.stages)
            positions = {} if record is None else record_positions(record)
            if positions and min(positions.values()) > 0:
                killed_at.append(positions)
                victim.kill()
                return
            time.sleep(0.005)

    threading.Thread(target=chaos, daemon=True).start()
    report = coordinator.run()

    assert sorted(map(result_key, pipeline.sink.results)) == baselines(layers)
    dist = report.extra["dist"]
    assert killed_at, "worker-0 never committed a position past 0"
    assert dist["failure"] is None and dist["restarts"] >= 1
    resumed = coordinator.worker_beats()["worker-0"]["info"]["resumed"]
    assert resumed is not None
    offsets = {(t, p): o for t, p, o in resumed["offsets"]}
    assert set(offsets) == set(killed_at[0])
    for key, offset in offsets.items():
        assert offset >= killed_at[0][key] > 0


def _crash_once(flag, publish):
    """A ``_publish`` that kills the first worker to reach epoch 2, once."""

    def crashing(self, epoch):
        if epoch >= 2 and flag.value == 0:
            flag.value = 1
            publish(self, epoch, crash=True)
        else:
            publish(self, epoch, crash=False)

    return crashing


def _before_record(self, epoch, crash):
    if crash:
        os._exit(1)  # the epoch is cut and acked; its record never lands
    ORIGINAL_PUBLISH(self, epoch)


def _after_record(self, epoch, crash):
    ORIGINAL_PUBLISH(self, epoch)
    if crash:
        os._exit(1)  # the record landed; the coordinator has not trimmed to it


ORIGINAL_PUBLISH = commits_module.StageCommitter._publish


@pytest.mark.parametrize(
    "step", [_before_record, _after_record], ids=["before-record", "before-trim"]
)
def test_crash_at_each_protocol_step_converges(
    monkeypatch, layer_records, reference_images, test_job, baselines, step
):
    """A worker dies between the barrier and its epoch record, or between
    the record and the coordinator's trim: either way the run converges on
    the in-process result with no duplicate delivered, and every slab is
    either free or held by a record still in a log."""
    import gc

    flag = multiprocessing.Value("i", 0)  # shared with the forked workers
    monkeypatch.setattr(
        commits_module.StageCommitter, "_publish", _crash_once(flag, step)
    )
    layers = 40
    strata, pipeline = _build(layer_records, reference_images, test_job, layers, PERIOD_S)
    coordinator = DistCoordinator(
        strata.query, strata.broker, DistConfig(workers=2, produce_batch=8, **SHM)
    )
    report = coordinator.run()

    assert flag.value == 1, "no worker reached the crash point"
    assert sorted(map(result_key, pipeline.sink.results)) == baselines(layers)
    dist = report.extra["dist"]
    assert dist["failure"] is None and dist["restarts"] == 1
    plane = coordinator.server.transport
    gc.collect()
    assert plane.stats()["leased"] == 0
    live = sum(ref() is not None for ref in plane._bound.values())
    assert live == 0  # every slab-carrying record was trimmed by the end


def test_hand_run_worker_started_again_resumes_from_its_record():
    """The ``worker`` verb runs ``run_stage`` in a thread; started a second
    time against the same broker it restores from the record its first run
    committed: the raw collector skips what it had emitted and the reader
    starts at its committed offset, not at 0."""
    from repro.core.connectors import PubSubReaderSource, PubSubWriterSink
    from repro.dist import cut_stages, run_stage
    from repro.net import BrokerServer
    from repro.pubsub import Broker
    from repro.spe import Query, Source, StreamTuple

    class Paced(Source):
        def __iter__(self):
            for i in range(40):
                time.sleep(0.01)
                yield StreamTuple(tau=float(i), job="J", layer=i, payload={"x": i})

    def stages(broker):
        query = Query("q")
        query.add_source("src", Paced("src"))
        query.add_sink("mid", PubSubWriterSink("w-mid", broker, "strata.mid"), ["src"])
        query.add_source("hop", PubSubReaderSource("r-mid", broker, "strata.mid"))
        query.add_sink("out", PubSubWriterSink("w-out", broker, "strata.out"), ["hop"])
        return cut_stages(query.build())

    broker = Broker()
    with BrokerServer(broker, allow_pickle=True) as server:
        run_stage(stages(broker), server.address, worker_name="hand")
        assert server.workers()["hand"]["info"]["resumed"] is None
        first_run = broker.offsets("strata.mid", 0)[1]
        assert first_run == 41  # 40 rows, then the sentinel
        run_stage(stages(broker), server.address, worker_name="hand")
        resumed = server.workers()["hand"]["info"]["resumed"]
    assert resumed is not None
    (topic, partition, offset), = resumed["offsets"]
    assert (topic, partition) == ("strata.mid", 0) and offset > 0
    # the collector resumed after what it had emitted: fewer than 40 again
    assert broker.offsets("strata.mid", 0)[1] - first_run < 41


def test_a_rescaled_workers_states_restore_at_the_plans_parallelism(
    layer_records, reference_images, test_job
):
    """A worker whose controller had grown a group to x2 commits replica
    states ``member::0`` and ``member::1``; its re-forked self starts the
    group at the plan's x1, so the record is re-sharded the way a rescale
    re-shards, and restores without an unknown-node error."""
    from repro.dist.commits import _fit_replicas
    from repro.elastic import ElasticConfig, elastic_plan
    from repro.kvstore import MemoryStore
    from repro.recovery import CheckpointStorage, RecoveryCoordinator
    from repro.spe.plan import PlanConfig, compile_plan

    strata, _ = _build(layer_records, reference_images, test_job, 8)
    config, forced = elastic_plan(PlanConfig(), ElasticConfig(max_parallelism=2))
    nodes = compile_plan(strata.query.build(), config, force_replication=forced)
    states = {
        "detect:cellLabel::0": {"events_out": 5},
        "detect:cellLabel::1": {"events_out": 7},
        "fuse:OT&pp": {"kept": []},
    }
    fitted = _fit_replicas(states, nodes)
    assert fitted == {
        "detect:cellLabel::0": {"events_out": 12}, "fuse:OT&pp": {"kept": []},
    }

    del fitted["fuse:OT&pp"]
    storage = CheckpointStorage(MemoryStore())
    storage.save_node_state(0, "detect:cellLabel::0", fitted["detect:cellLabel::0"])
    storage.commit_manifest(0, {"epoch": 0, "nodes": sorted(fitted), "sources": []})
    report = RecoveryCoordinator(storage).restore(nodes)
    assert report.nodes_restored == ["detect:cellLabel::0"]
    detect = next(n for n in nodes if "detect:cellLabel::0" in n.checkpoint_names())
    assert detect.operator.snapshot_parts()["detect:cellLabel::0"]["events_out"] == 12
