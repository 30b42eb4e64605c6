"""The two payload transports: choosing one, negotiation, slab lifecycle."""

import socket
import time

import numpy as np
import pytest

from repro.net import (
    BrokerClient,
    BrokerServer,
    ClientTransport,
    connect_transport,
    make_server_transport,
)
from repro.pubsub import Broker

#: small ring so tests exercise reclamation without big allocations
SHM_OPTS = {"slots": 8, "slab_bytes": 1024 * 1024}


@pytest.fixture()
def shm_served():
    broker = Broker()
    with BrokerServer(broker, transport="shm", transport_options=SHM_OPTS) as server:
        host, port = server.address
        with BrokerClient(host, port) as client:
            yield broker, server, client


# -- choosing a transport ------------------------------------------------------


def test_unknown_server_transport_fails_loudly():
    with pytest.raises(ValueError, match=r"unknown transport 'spm'.*shm.*tcp"):
        make_server_transport("spm")
    with pytest.raises(ValueError, match="unknown transport 'spm'"):
        BrokerServer(Broker(), transport="spm")


def test_server_transport_by_name():
    assert make_server_transport("tcp").describe() == {"name": "tcp"}
    # the dist coordinator hands the ring's sizes to whichever it names
    assert make_server_transport("tcp", **SHM_OPTS).describe() == {"name": "tcp"}
    shm = make_server_transport("shm", **SHM_OPTS)
    try:
        assert shm.describe()["slots"] == SHM_OPTS["slots"]
    finally:
        shm.close()


def test_connect_transport_always_lands_somewhere():
    assert connect_transport(None).name == "tcp"
    assert connect_transport({}).name == "tcp"
    assert connect_transport({"name": "rdma-of-the-future"}).name == "tcp"
    # shm advertised but the ring is gone (server on another machine, or
    # torn down): degrade to tcp instead of failing the connection
    assert connect_transport({"name": "shm"}).name == "tcp"
    assert connect_transport({"name": "shm", "ring": "psm_nope"}).name == "tcp"


def test_server_accepts_prebuilt_transport_instance():
    transport = make_server_transport("shm", **SHM_OPTS)
    with BrokerServer(Broker(), transport=transport) as server:
        assert server._transport is transport
        assert server._transport.describe()["name"] == "shm"


# -- negotiation --------------------------------------------------------------


def test_client_negotiates_shm_against_shm_server(shm_served):
    _, server, client = shm_served
    assert client.transport.name == "shm"
    descriptor = server._transport.describe()
    assert descriptor["slots"] == SHM_OPTS["slots"]
    assert descriptor["slab_bytes"] == SHM_OPTS["slab_bytes"]


def test_client_negotiates_tcp_against_tcp_server():
    with BrokerServer(Broker()) as server:
        host, port = server.address
        with BrokerClient(host, port) as client:
            assert client.transport.name == "tcp"


# -- payloads through the slab ring -------------------------------------------


def test_large_arrays_ride_slabs_and_roundtrip(shm_served):
    _, server, client = shm_served
    image = np.arange(300 * 300, dtype=np.float64).reshape(300, 300)  # 720 KB
    producer = client.producer()
    for _ in range(3):
        producer.send("t", image)
    assert server._transport.stats()["slabs_bound"] == 3
    consumer = client.consumer("g", ["t"])
    got = [m.value for m in consumer.poll(timeout=5.0)]
    assert len(got) == 3
    for value in got:
        np.testing.assert_array_equal(value, image)
    producer.close()
    consumer.close()


def test_small_arrays_stay_inline(shm_served):
    _, server, client = shm_served
    tiny = np.ones((4, 4), dtype=np.float64)  # far below SHM_MIN_BYTES
    producer = client.producer()
    producer.send("t", tiny)
    assert server._transport.stats()["slabs_bound"] == 0
    np.testing.assert_array_equal(
        client.consumer("g", ["t"]).poll(timeout=5.0)[0].value, tiny
    )


def test_oversized_arrays_fall_back_inline(shm_served):
    _, server, client = shm_served
    big = np.zeros(SHM_OPTS["slab_bytes"] + 8, dtype=np.uint8)  # > one slab
    client.producer().send("t", big)
    assert server._transport.stats()["slabs_bound"] == 0
    got = client.consumer("g", ["t"]).poll(timeout=5.0)[0].value
    np.testing.assert_array_equal(got, big)


def test_local_consumer_sees_shm_produced_records(shm_served):
    """The broker stores SlabRefs; a same-process reader attaches through
    the server, which resolves them at read time — or through a loopback
    client. Both see the pixels; the stored record keeps its ref."""
    broker, server, client = shm_served
    image = np.full((256, 256), 3.5)
    client.producer().send("t", image)
    got = server.consumer("g1", ["t"]).poll(timeout=5.0)[0].value
    np.testing.assert_array_equal(got, image)
    host, port = server.address
    with BrokerClient(host, port) as reader:
        got = reader.consumer("g2", ["t"]).poll(timeout=5.0)[0].value
    np.testing.assert_array_equal(got, image)
    stored = broker.topic("t").log(0).read(0)[0].value
    assert not isinstance(stored, np.ndarray) and stored.live


# -- lease lifecycle ----------------------------------------------------------


def test_producer_close_returns_pooled_leases(shm_served):
    _, server, client = shm_served
    producer = client.producer()
    producer.send("t", np.ones((256, 256)))  # leases a batch, binds one slot
    stats = server._transport.stats()
    assert stats["slabs_bound"] == 1
    assert stats["leased"] > 0  # the rest of the batch is pooled client-side
    producer.close()
    stats = server._transport.stats()
    assert stats["leased"] == 0
    assert stats["free"] == SHM_OPTS["slots"] - 1  # only the bound slot is out


def test_dead_connection_leases_are_reclaimed(shm_served):
    _, server, client = shm_served
    conn = client.connect()
    granted = conn.request("lease", {"count": 4}).meta["slots"]
    assert len(granted) == 4
    assert server._transport.stats()["leased"] == 4
    conn._sock.shutdown(socket.SHUT_RDWR)  # die without releasing
    conn.close()
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        if server._transport.stats()["leased"] == 0:
            break
        time.sleep(0.02)
    stats = server._transport.stats()
    assert stats["leased"] == 0
    assert stats["leases_reclaimed"] == 4


def test_release_ignores_foreign_and_stale_pairs(shm_served):
    _, server, client = shm_served
    conn_a = client.connect()
    conn_b = client.connect()
    pairs = conn_a.request("lease", {"count": 2}).meta["slots"]
    # another connection cannot release slots it does not own
    assert conn_b.request("release", {"slots": pairs}).meta["released"] == 0
    assert conn_a.request("release", {"slots": pairs}).meta["released"] == 2
    # double release is a no-op, not an error
    assert conn_a.request("release", {"slots": pairs}).meta["released"] == 0
    conn_a.close()
    conn_b.close()


def test_lease_against_tcp_server_grants_nothing():
    with BrokerServer(Broker()) as server:
        host, port = server.address
        with BrokerClient(host, port) as client:
            conn = client.connect()
            assert conn.request("lease", {"count": 4}).meta["slots"] == []
            conn.close()


# -- server stop() drain semantics --------------------------------------------


def test_stop_reports_clean_drain(shm_served):
    _, server, client = shm_served
    client.producer().send("t", np.ones((128, 128)))
    assert server.stop() is False  # everything flushed before the deadline


def test_stop_before_start_is_clean_and_frees_the_ring():
    server = BrokerServer(Broker(), transport="shm", transport_options=SHM_OPTS)
    ring_name = server._transport.describe()["ring"]
    assert server.stop() is False
    from multiprocessing import shared_memory

    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=ring_name)


def test_stop_is_idempotent():
    server = BrokerServer(Broker())
    server.start()
    assert server.stop() is False
    assert server.stop() is False


def test_stop_deadline_hits_when_a_peer_refuses_to_read():
    """A reader that never drains its socket cannot stall shutdown forever:
    stop() gives up at the deadline and reports the truncation."""
    broker = Broker()
    server = BrokerServer(broker, allow_pickle=True)
    server.start()
    host, port = server.address
    try:
        with BrokerClient(host, port, allow_pickle=True) as client:
            producer = client.producer()
            blob = np.zeros(4 * 1024 * 1024, dtype=np.uint8)
            for _ in range(7):  # ~28 MB pending, one fetch reply
                producer.send("t", blob)
            # a raw connection that requests everything and then stops reading
            conn = client.connect()
            conn._sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 8192)
            from repro.net.frames import TYPE_REQUEST, Frame, write_frame

            write_frame(
                conn._sock,
                Frame(
                    type=TYPE_REQUEST,
                    corr_id=1,
                    meta={
                        "op": "fetch", "topic": "t", "partition": 0,
                        "offset": 0, "max_records": 1024, "timeout": 0.0,
                    },
                ),
            )
            time.sleep(0.5)  # let the server enqueue the reply
            assert server.stop(timeout=0.5) is True
            conn.close()
    finally:
        server.stop()


def test_spill_extents_survive_refs_dying_on_other_threads(tmp_path):
    """An extent is handed back by a weakref finalizer that can run on any
    thread at any bytecode; the store side (serialized by the plane's
    lock, as here) must neither lose an extent nor hand one out twice.
    Four threads store, verify and drop payloads under a 1 µs switch
    interval: every read-back matches, nothing stays held at the end and
    the file never grew past what was alive at once."""
    import sys
    import threading

    from repro.net.shm import _Spill

    class Owner:  # weakref-able stand-in for a SlabRef
        pass

    extent, threads, rounds, keep = 4096, 4, 300, 3
    spill = _Spill(extent, str(tmp_path))
    lock = threading.Lock()
    errors = []

    def work(seed):
        held = []
        try:
            for i in range(rounds):
                owner = Owner()
                payload = bytes([seed]) * 1000 + i.to_bytes(4, "big")
                with lock:
                    offset = spill.store(owner, memoryview(payload))
                held.append((owner, offset, payload))
                for _, off, expected in held:
                    back = bytearray(len(expected))
                    spill.readinto(back, off)
                    assert back == expected, "an extent was handed out twice"
                if len(held) > keep:
                    held.pop(0)  # its finalizer fires here, on this thread
        except Exception as exc:  # surfaced by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(s,)) for s in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        assert not any(w.is_alive() for w in workers)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    stats = spill.stats()
    assert stats["spill_bytes"] == 0
    assert stats["spill_file_bytes"] <= threads * (keep + 2) * extent
    spill.close()


def test_failed_spills_log_once_with_a_count(tmp_path, caplog):
    """Where the spill file cannot be written, each reclaimed payload stays
    in memory and is counted; the plane says so in one warning, at close,
    not once per slab."""
    import logging

    broker = Broker()
    options = {**SHM_OPTS, "spill_dir": str(tmp_path / "missing")}
    with caplog.at_level(logging.WARNING, logger="repro.net.shm"):
        with BrokerServer(broker, transport="shm", transport_options=options) as server:
            with BrokerClient(*server.address) as client:
                producer = client.producer()
                for i in range(3 * SHM_OPTS["slots"]):
                    producer.send("t", np.full(64 * 1024, float(i)))
                producer.close()
            stats = server.transport.stats()
            assert stats["slabs_spilled"] == 0 and stats["slabs_materialized"] > 0
            got = server.consumer("c", ["t"]).poll(10**6)
            assert [m.value[0] for m in got] == [float(i) for i in range(len(got))]
            assert not caplog.records  # nothing per slab
    warnings = [r.getMessage() for r in caplog.records if r.name == "repro.net.shm"]
    assert len(warnings) == 1
    assert f"failed {stats['slabs_materialized']} time(s)" in warnings[0]
