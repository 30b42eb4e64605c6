"""Distributed deployments over the shared-memory payload plane.

The shm transport changes how payload bytes move, not what the pipeline
computes — so every test here is an equivalence test against the
in-process baseline, including under chaos: a killed worker dies holding
slab leases, and the replacement's replay must still converge to the
exact same result set while the server reclaims every orphaned slot.
"""

import threading
import time

import pytest

from repro.dist import DistConfig, DistCoordinator
from repro.spe import ColumnarBlock

from .test_worker_runtime import build, result_key

# 250 px float64 OT images are 500 KB: comfortably above SHM_MIN_BYTES,
# so layer payloads genuinely ride the ring in these tests
SHM_CONFIG = dict(transport="shm", shm_slots=24, shm_slab_bytes=2 * 1024 * 1024)


@pytest.fixture(scope="module")
def baseline(layer_records, reference_images, test_job):
    strata, pipeline = build(layer_records, reference_images, test_job)
    strata.deploy()
    return sorted(map(result_key, pipeline.sink.results))


def _ring_stats(coordinator):
    return coordinator._server._transport.stats()


def test_shm_deploy_equals_threaded(
    layer_records, reference_images, test_job, baseline
):
    strata, pipeline = build(layer_records, reference_images, test_job)
    coordinator = DistCoordinator(
        strata.query, strata.broker,
        DistConfig(workers=2, **SHM_CONFIG),
        capacity=strata.capacity,
    )
    coordinator.start()
    stats_mid = _ring_stats(coordinator)
    assert stats_mid["slots"] == SHM_CONFIG["shm_slots"]
    report = coordinator.run()
    assert sorted(map(result_key, pipeline.sink.results)) == baseline
    dist = report.extra["dist"]
    assert dist["restarts"] == 0 and dist["failure"] is None


def test_shm_deploy_with_batching_equals_threaded(
    layer_records, reference_images, test_job, baseline
):
    from repro.core.deploy import DeployConfig

    strata, pipeline = build(layer_records, reference_images, test_job)
    report = strata.deploy(
        DeployConfig(dist=DistConfig(workers=2, produce_batch=8, **SHM_CONFIG))
    )
    assert sorted(map(result_key, pipeline.sink.results)) == baseline
    assert report.extra["dist"]["failure"] is None


def test_worker_kill_under_shm_reclaims_leases_and_converges(
    layer_records, reference_images, test_job, baseline
):
    """The chaos case the lease design exists for: a worker is killed while
    it may hold leased-but-unpublished slots. The server must reclaim them
    on disconnect (no slot leaks), and the restarted worker's replay must
    leave the output bit-identical to the in-process run."""
    strata, pipeline = build(layer_records, reference_images, test_job)
    coordinator = DistCoordinator(
        strata.query, strata.broker,
        DistConfig(workers=2, **SHM_CONFIG),
        capacity=strata.capacity,
    )
    coordinator.start()

    def chaos():
        time.sleep(0.05)
        coordinator.workers[0].kill()

    threading.Thread(target=chaos, daemon=True).start()
    report = coordinator.run()

    assert sorted(map(result_key, pipeline.sink.results)) == baseline
    dist = report.extra["dist"]
    if dist["restarts"]:
        assert dist["failure"] is None
        assert dist["workers"]["worker-0"]["incarnation"] >= 1
    stats = _ring_stats(coordinator)
    # every lease is either bound to a record or back on the free list —
    # a kill mid-produce must not leak slots
    assert stats["leased"] == 0
    assert stats["free"] + stats["bound"] == stats["slots"]


def test_shm_ring_is_unlinked_after_shutdown(
    layer_records, reference_images, test_job
):
    strata, _ = build(layer_records, reference_images, test_job)
    coordinator = DistCoordinator(
        strata.query, strata.broker,
        DistConfig(workers=2, **SHM_CONFIG),
        capacity=strata.capacity,
    )
    coordinator.start()
    ring_name = coordinator._server._transport.describe()["ring"]
    coordinator.run()
    from multiprocessing import shared_memory

    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=ring_name)


def test_shm_config_toml_roundtrip():
    """`[dist] transport = "shm"` is first-class DeployConfig surface."""
    from repro.core.deploy import DeployConfig, DeployConfigError

    data = {
        "dist": {
            "workers": 4, "transport": "shm", "shm_slots": 32,
            "shm_slab_bytes": 8 * 1024 * 1024, "produce_batch": 16,
        }
    }
    config = DeployConfig.from_dict(data)
    assert config.dist.transport == "shm"
    assert config.dist.shm_slots == 32
    assert config.dist.produce_batch == 16
    assert DeployConfig.from_dict(config.to_dict()).dist == config.dist
    # legacy dicts (no transport keys) load with tcp defaults
    legacy = DeployConfig.from_dict({"dist": {"workers": 2}})
    assert legacy.dist.transport == "tcp" and legacy.dist.produce_batch == 1
    with pytest.raises(DeployConfigError, match="dist.transprot"):
        DeployConfig.from_dict({"dist": {"workers": 2, "transprot": "shm"}})


def _paced(records, period_s):
    for record in records:
        time.sleep(period_s)
        yield record


def test_worker_kill_with_block_records_dedups_per_row(
    layer_records, reference_images, test_job, baseline
):
    """The same chaos with batching writers, the kill timed to land after
    the first results were published: the restarted workers republish
    their output as block records, and the terminal stage must de-duplicate
    row by row — a replay need not frame the same blocks."""
    strata, pipeline = build(
        layer_records, reference_images, test_job,
        ot_records=_paced(layer_records, 0.03),
    )
    coordinator = DistCoordinator(
        strata.query, strata.broker,
        DistConfig(workers=2, produce_batch=8, **SHM_CONFIG),
        capacity=strata.capacity,
    )
    coordinator.start()
    cells = strata.broker.ensure_topic("strata.cellLabel").log(0)

    def chaos():
        deadline = time.monotonic() + 20
        while cells.end_offset < 4 and time.monotonic() < deadline:
            time.sleep(0.005)
        for worker in coordinator.workers:
            worker.kill()

    threading.Thread(target=chaos, daemon=True).start()
    report = coordinator.run()

    assert sorted(map(result_key, pipeline.sink.results)) == baseline
    dist = report.extra["dist"]
    assert dist["failure"] is None
    records = [
        m.value
        for m in coordinator.server.broker.topic("strata.cellLabel").log(0).read(0, 10**6)
        if not isinstance(m.value, str)  # the end-of-stream sentinels
    ]
    assert any(isinstance(value, ColumnarBlock) for value in records)
    rows = [
        t
        for value in records
        for t in (value.to_tuples() if isinstance(value, ColumnarBlock) else [value])
    ]
    distinct = {(t.tau, t.job, t.layer, t.specimen, t.portion) for t in rows}
    # every distinct row reached the terminal stage exactly once, however
    # many times and in whatever framing the incarnations published it
    assert len(rows) - dist["duplicates_suppressed_local"] == len(distinct)
    assert dist["restarts"] >= 1
    assert dist["duplicates_suppressed_local"] > 0


# -- the ring under a producer that laps it ------------------------------------


def _slab_array(i, kb=64):
    import numpy as np

    return np.full(kb * 128, float(i))  # kb KiB of float64, all equal to i


def test_producer_lapping_the_ring_inside_every_fetch_loses_nothing(monkeypatch):
    """A 4-slot ring and the worst schedule an unpaced producer can hit:
    every time the consumer is part-way through decoding a fetched batch,
    the producer laps the whole ring, so the handles still ahead in that
    batch go stale. A stale handle must cost nothing already decoded — the
    consumer keeps the prefix and resumes at the stale record, which the
    server has spilled and answers inline by then — so all 240 arrays
    arrive, in order. Refetching the whole batch instead never converges:
    each attempt loses the race the same way."""
    import repro.net.client as client_module
    from repro.net import BrokerClient, BrokerServer
    from repro.pubsub import Broker

    count, slots = 240, 4
    with BrokerServer(
        Broker(), transport="shm",
        transport_options={"slots": slots, "slab_bytes": 128 * 1024},
    ) as server:
        with BrokerClient(*server.address) as client:
            producer = client.producer()
            sent = 0

            def produce(n):
                nonlocal sent
                for _ in range(min(n, count - sent)):
                    producer.send("t", _slab_array(sent))
                    sent += 1

            decoded_in_fetch = 0
            real_decode = client_module.decode_wire

            def racing_decode(blob, **kwargs):
                nonlocal decoded_in_fetch
                decoded_in_fetch += 1
                if decoded_in_fetch == 2:
                    produce(slots)  # reclaims every slot a pending handle names
                return real_decode(blob, **kwargs)

            monkeypatch.setattr(client_module, "decode_wire", racing_decode)
            produce(slots + 2)
            consumer = client.consumer("g", ["t"], auto_commit=False)
            conn = consumer._logs._conn
            real_call = conn.call

            def call(name, *args):
                nonlocal decoded_in_fetch
                if name == "fetch":
                    decoded_in_fetch = 0  # the race repeats on every fetch attempt
                return real_call(name, *args)

            monkeypatch.setattr(conn, "call", call)
            seen = []
            for _ in range(4 * count):
                for message in consumer.poll(max_records=64):
                    assert (message.value == message.value[0]).all()
                    seen.append(int(message.value[0]))
                if len(seen) == count:
                    break
                if sent == len(seen):
                    produce(slots)
            producer.close()
            consumer.close()
        stats = server.transport.stats()
    assert seen == list(range(count))
    assert stats["slabs_spilled"] >= count - slots - 8  # all but the live tail


def test_retained_payload_is_flat_in_stream_length():
    """With no consumer commit and no retention, every record stays
    replayable — on disk, not in the broker's heap. Feeding 4x the records
    grows the spill 4x and the heap by less than one ring's worth, and a
    replay from offset 0 is bit-identical."""
    import gc
    import tracemalloc

    import numpy as np

    from repro.net import BrokerClient, BrokerServer
    from repro.pubsub import Broker

    slots, kb = 8, 64
    ring_bytes = slots * kb * 1024
    n = 48
    with BrokerServer(
        Broker(), transport="shm",
        transport_options={"slots": slots, "slab_bytes": kb * 1024},
    ) as server:
        with BrokerClient(*server.address) as client:
            producer = client.producer()

            def feed(start, stop):
                for i in range(start, stop):
                    producer.send("t", _slab_array(i, kb))

            tracemalloc.start()
            try:
                feed(0, n)
                gc.collect()
                heap_n, _ = tracemalloc.get_traced_memory()
                spill_n = server.transport.stats()["spill_bytes"]
                feed(n, 4 * n)
                gc.collect()
                heap_4n, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            stats = server.transport.stats()
            assert stats["slabs_materialized"] == 0
            assert stats["slabs_spilled"] >= 4 * n - slots - 8
            assert stats["spill_bytes"] == stats["slabs_spilled"] * kb * 1024
            assert stats["spill_bytes"] >= 3 * spill_n  # grows with the stream
            assert heap_4n - heap_n < ring_bytes  # ... and the heap does not

            # replay from earliest: a remote fetch and an in-process read
            consumer = client.consumer("replay", ["t"], auto_commit=False)
            remote = []
            while len(remote) < 4 * n:
                got = consumer.poll(max_records=32, timeout=5.0)
                assert got
                remote.extend(m.value for m in got)
            local = [m.value for m in server.consumer("local", ["t"]).poll(10**6)]
            for i, (a, b) in enumerate(zip(remote, local, strict=True)):
                expected = _slab_array(i, kb)
                assert a.tobytes() == expected.tobytes()
                assert b.tobytes() == expected.tobytes()
            producer.close()
            consumer.close()


def test_spill_stays_bounded_under_topic_retention(tmp_path):
    """A topic with ``retention`` drops its oldest records; the spill
    extents those records owned are reused, so the spill file stops
    growing at about one retention's worth however long the stream runs —
    and what is still retained replays bit-identical."""
    from repro.net import BrokerClient, BrokerServer
    from repro.pubsub import Broker

    slots, kb, retention, n = 8, 64, 16, 400
    slab = kb * 1024
    broker = Broker()
    broker.ensure_topic("t", 1, retention)
    with BrokerServer(
        broker, transport="shm",
        transport_options={
            "slots": slots, "slab_bytes": slab, "spill_dir": str(tmp_path),
        },
    ) as server:
        with BrokerClient(*server.address) as client:
            producer = client.producer()
            for i in range(n):
                producer.send("t", _slab_array(i, kb))
            stats = server.transport.stats()
            assert stats["slabs_materialized"] == 0
            assert stats["slabs_spilled"] >= n - retention - 2 * slots
            assert stats["spill_bytes"] <= retention * slab
            assert stats["spill_file_bytes"] <= (retention + slots) * slab
            assert list(tmp_path.iterdir()) == []  # unlinked from the start

            kept = server.consumer("local", ["t"]).poll(10**6)
            assert [m.offset for m in kept] == list(range(n - retention, n))
            for m in kept:
                assert m.value.tobytes() == _slab_array(m.offset, kb).tobytes()
            producer.close()


def test_failed_run_releases_everything_it_started():
    """A terminal stage that raises must not strand the server loop, the
    supervision thread or the slab ring: the error surfaces once
    everything the coordinator started is gone."""
    from multiprocessing import shared_memory

    from repro.core import Strata
    from repro.spe import CallbackSink, ListSource, StreamTuple

    def explode(_t):
        raise RuntimeError("sink exploded")

    strata = Strata(connector_mode="pubsub")
    (
        strata.add_source(
            ListSource("src", [
                StreamTuple(tau=float(i), job="j", layer=i, payload={"v": i})
                for i in range(8)
            ]),
            "raw",
        )
        .partition("parts", lambda t: [t.derive(specimen="s0", portion="p0")])
        .deliver(CallbackSink("out", explode))
    )
    coordinator = DistCoordinator(
        strata.query, strata.broker, DistConfig(workers=1, **SHM_CONFIG),
        capacity=strata.capacity,
    )
    ring_name = coordinator.server.transport.describe()["ring"]
    with pytest.raises(Exception, match="sink exploded"):
        coordinator.run()
    names = {thread.name for thread in threading.enumerate()}
    assert "broker-server-loop" not in names
    assert "dist-monitor" not in names
    assert not any(worker.alive() for worker in coordinator.workers)
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=ring_name)
