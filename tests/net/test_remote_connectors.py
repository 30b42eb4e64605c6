"""Pub/sub connectors running over a networked broker, unchanged."""

import threading

import pytest

from repro.core.connectors import PubSubReaderSource, PubSubWriterSink
from repro.net import BrokerClient, BrokerServer
from repro.pubsub import Broker
from repro.spe import StreamTuple
from repro.spe.stream import TupleBatch
from tests.conftest import rows


@pytest.fixture()
def client():
    with BrokerServer(Broker(), allow_pickle=True) as server:
        host, port = server.address
        with BrokerClient(host, port, allow_pickle=True) as client:
            yield client


def make_tuple(i):
    return StreamTuple(tau=float(i), job="J", layer=i, payload={"x": i})


def test_writer_reader_over_the_network(client):
    writer = PubSubWriterSink("w", client, "strata.s")
    reader = PubSubReaderSource("r", client, "strata.s")
    got = []
    thread = threading.Thread(target=lambda: got.extend(reader))
    thread.start()
    for i in range(5):
        writer.accept(make_tuple(i))
    writer.on_close()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert [t.layer for t in got] == [0, 1, 2, 3, 4]


def test_remote_writer_feeds_local_reader(client):
    # writer over TCP, reader directly on the server's broker: the server
    # stores decoded values, so mixed attachment just works
    writer = PubSubWriterSink("w", client, "strata.s")
    for i in range(3):
        writer.accept(make_tuple(i))
    writer.on_close()
    # a second remote reader group sees the same records independently
    reader = PubSubReaderSource("r", client, "strata.s")
    assert [t.layer for t in reader] == [0, 1, 2]


def test_multi_partition_eos_over_network(client):
    client.ensure_topic("strata.s", partitions=3)
    writer = PubSubWriterSink("w", client, "strata.s")
    for i in range(6):
        writer.accept(make_tuple(i))
    writer.on_close()
    reader = PubSubReaderSource("r", client, "strata.s")
    got = list(reader)  # terminates only if every partition got a sentinel
    assert sorted(t.layer for t in got) == [0, 1, 2, 3, 4, 5]


def test_rebind_moves_connector_between_brokers(client):
    local = Broker()
    writer = PubSubWriterSink("w", local, "strata.s")
    reader = PubSubReaderSource("r", local, "strata.s")
    writer.rebind(client)
    reader.rebind(client)
    writer.accept(make_tuple(0))
    writer.on_close()
    assert [t.layer for t in reader] == [0]
    assert local.topic("strata.s").log(0).end_offset == 0  # nothing local


def test_dedup_suppresses_replayed_records(client):
    writer = PubSubWriterSink("w", client, "strata.s")
    for i in range(3):
        writer.accept(make_tuple(i))
    for i in range(3):  # replay, as a restarted upstream worker would
        writer.accept(make_tuple(i))
    writer.on_close()
    reader = PubSubReaderSource("r", client, "strata.s", dedup=True)
    got = list(reader)
    assert [t.layer for t in got] == [0, 1, 2]
    assert reader.duplicates_suppressed == 3


# -- batching writers: block records, no stranded tail ------------------------


def _cells(layer, count, first=0):
    return [
        StreamTuple(
            tau=float(layer), job="J", layer=layer, payload={"x": i, "m": i * 0.5},
            specimen="S", portion=str(i),
        )
        for i in range(first, first + count)
    ]


def test_batching_writer_publishes_runs_as_block_records(client):
    from repro.spe import ColumnarBlock

    writer = PubSubWriterSink("w", client, "strata.s", batch_size=8)
    marker = StreamTuple(tau=1.0, job="J", layer=1, payload={"done": True})
    for t in _cells(0, 5) + _cells(1, 2) + [marker]:
        writer.accept(t)  # the 8th tuple fills the frame
    writer.on_close()
    values = [m.value for m in client.consumer("probe", ["strata.s"]).poll(timeout=5.0)]
    # two same-layer, same-schema runs became blocks; the lone marker (another
    # schema) stayed the tuple record it always was; then the sentinel
    assert [type(v) for v in values[:3]] == [ColumnarBlock, ColumnarBlock, StreamTuple]
    assert [len(v) for v in values[:2]] == [5, 2]
    items = list(PubSubReaderSource("r", client, "strata.s"))
    # the reader hands each record's rows over whole
    assert [len(item) if type(item) is TupleBatch else 1 for item in items] == [5, 2, 1]
    got = rows(items)
    assert [(t.layer, t.portion) for t in got[:7]] == (
        [(0, str(i)) for i in range(5)] + [(1, "0"), (1, "1")]
    )
    assert got[7].payload == {"done": True}


def test_partial_batch_is_published_when_the_input_runs_dry(client):
    """batch_size=8, three tuples in: all three must become readable without
    a fourth tuple, a rebind or a close — the scheduler flushes a buffering
    sink as soon as its input has nothing more ready."""
    from repro.spe import Query, ThreadedScheduler
    from repro.spe.source import Source

    release = threading.Event()

    class ThreeThenWait(Source):
        def __iter__(self):
            yield from _cells(0, 3)
            release.wait(timeout=30)  # the stream stays open, nothing more comes

    query = Query("q")
    query.add_source("src", ThreeThenWait("src"))
    query.add_sink(
        "out", PubSubWriterSink("w", client, "strata.tail", batch_size=8), ["src"]
    )
    client.ensure_topic("strata.tail")
    consumer = client.consumer("probe", ["strata.tail"])
    scheduler = ThreadedScheduler()
    scheduler.start(query.build())
    try:
        rows = []
        for _ in range(3):
            for message in consumer.poll(timeout=5.0):
                value = message.value
                rows.extend(value.to_tuples() if hasattr(value, "to_tuples") else [value])
            if len(rows) == 3:
                break
        assert [t.portion for t in rows] == ["0", "1", "2"]
    finally:
        release.set()
        scheduler.join(timeout=10)
    assert not scheduler.alive()


def test_dedup_is_per_row_when_a_replay_reframes_blocks(client):
    """A restarted upstream republishes the same tuples with other block
    boundaries; the reader must drop exactly the rows it has seen."""
    first = PubSubWriterSink("w", client, "strata.s", batch_size=4)
    for t in _cells(0, 6):
        first.accept(t)  # frames of 4 + (flushed at the rebind) 2
    first.rebind(client, batch_size=8)
    for t in _cells(0, 9):  # the replay, reframed 8 + 1, three rows are new
        first.accept(t)
    first.on_close()
    reader = PubSubReaderSource("r", client, "strata.s", dedup=True)
    got = rows(reader)
    assert [t.portion for t in got] == [str(i) for i in range(9)]
    assert reader.duplicates_suppressed == 6


@pytest.mark.parametrize("transport", ["tcp", "shm"])
def test_in_process_reader_on_a_served_broker(transport):
    """``BrokerServer.consumer`` reads the log in place under both
    transports and never hands out a transport-internal ref."""
    import numpy as np

    options = {"slots": 4, "slab_bytes": 256 * 1024} if transport == "shm" else None
    with BrokerServer(
        Broker(), allow_pickle=True, transport=transport, transport_options=options
    ) as server:
        with BrokerClient(*server.address, allow_pickle=True) as remote:
            writer = PubSubWriterSink("w", remote, "strata.s", batch_size=8)
            image = np.arange(128 * 128, dtype=np.float64).reshape(128, 128)
            writer.accept(
                StreamTuple(tau=0.0, job="J", layer=0, payload={"image": image})
            )
            for t in _cells(0, 4):
                writer.accept(t)
            writer.on_close()
            reader = PubSubReaderSource("r", server, "strata.s", auto_commit=False)
            got = rows(reader)
    assert len(got) == 5
    assert isinstance(got[0].payload["image"], np.ndarray)
    np.testing.assert_array_equal(got[0].payload["image"], image)
    assert [t.portion for t in got[1:]] == ["0", "1", "2", "3"]


# -- connectors close the clients they open -----------------------------------


def _settles(server, connections, timeout=5.0):
    """True once the server is down to ``connections`` sockets and no lease."""
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if (
            len(server._conns) == connections
            and server.transport.stats()["leased"] == 0
        ):
            return True
        time.sleep(0.01)
    return False


def test_connectors_close_the_clients_they_open():
    """A writer's producer goes at its EOS broadcast and whatever a rebind
    replaces goes at the rebind: the server is left holding neither their
    sockets nor the slab leases charged to them (returned, not reclaimed
    from a dead connection)."""
    import numpy as np

    options = {"slots": 8, "slab_bytes": 256 * 1024}
    image = np.ones((128, 128), dtype=np.float64)
    with BrokerServer(
        Broker(), allow_pickle=True, transport="shm", transport_options=options
    ) as server:
        with BrokerClient(*server.address, allow_pickle=True) as remote:
            remote.ensure_topic("strata.s")
            assert _settles(server, connections=1)  # the admin connection
            writer = PubSubWriterSink("w", remote, "strata.s")
            reader = PubSubReaderSource("r", remote, "strata.s")
            writer.accept(
                StreamTuple(tau=0.0, job="J", layer=0, payload={"image": image})
            )
            assert server.transport.stats()["leased"] > 0  # pooled client-side
            writer.rebind(remote)
            reader.rebind(remote)
            assert _settles(server, connections=3)  # admin + one of each, again
            # returned by the replaced producer's close(), not taken back from
            # a socket the garbage collector happened to close
            assert server.transport.stats()["leases_reclaimed"] == 0
            writer.accept(
                StreamTuple(tau=1.0, job="J", layer=1, payload={"image": image})
            )
            writer.on_close()
            assert _settles(server, connections=2)  # the producer is gone
            assert [t.layer for t in reader] == [0, 1]
            reader.close()
            assert _settles(server, connections=1)
            assert server.transport.stats()["leases_reclaimed"] == 0
