"""BrokerServer + BrokerClient: the full RPC surface over real sockets."""

import numpy as np
import pytest

from repro.net import BrokerClient, BrokerServer, ProtocolError, RpcError
from repro.pubsub import (
    Broker,
    Consumer,
    InvalidOffsetError,
    Producer,
    TopicExistsError,
    UnknownTopicError,
)
from repro.serde import PickleRefusedError
from repro.spe import StreamTuple


@pytest.fixture()
def served():
    broker = Broker()
    with BrokerServer(broker) as server:
        host, port = server.address
        with BrokerClient(host, port) as client:
            yield broker, server, client


def test_ping_and_wait_ready(served):
    _, _, client = served
    assert client.ping()
    client.wait_ready(timeout=5.0)


def test_wait_ready_times_out_quickly():
    client = BrokerClient("127.0.0.1", 1)  # port 1: nothing listening
    with pytest.raises(TimeoutError):
        client.wait_ready(timeout=0.2, interval=0.05)


def test_topic_admin_roundtrip(served):
    _, _, client = served
    client.create_topic("a", partitions=3)
    assert client.ensure_topic("a", partitions=3) == 3
    assert client.has_topic("a")
    assert not client.has_topic("missing")
    assert "a" in client.topics()
    assert client.partitions("a") == 3
    with pytest.raises(TopicExistsError):
        client.create_topic("a")
    with pytest.raises(UnknownTopicError):
        client.partitions("missing")


def test_produce_fetch_roundtrip(served):
    broker, _, client = served
    producer = client.producer()
    for i in range(4):
        partition, offset = producer.send(
            "t", {"i": i}, key="k", timestamp=float(i), headers={"h": i}
        )
        assert (partition, offset) == (0, i)
    assert producer.records_sent == 4
    consumer = client.consumer("g", ["t"])
    messages = consumer.poll()
    assert [m.value for m in messages] == [{"i": i} for i in range(4)]
    assert messages[0].key == "k"
    assert messages[0].timestamp == 0.0
    assert messages[0].headers == {"h": 0}
    assert [m.offset for m in messages] == [0, 1, 2, 3]
    producer.close()
    consumer.close()


def test_remote_and_local_clients_interoperate(served):
    broker, _, client = served
    # remote producer -> local consumer: the server stores decoded values
    client.producer().send("t", {"x": 1})
    local = Consumer(broker, "local", ["t"])
    assert [m.value for m in local.poll()] == [{"x": 1}]
    # local producer -> remote consumer
    Producer(broker).send("t", {"x": 2})
    remote = client.consumer("remote", ["t"])
    assert [m.value for m in remote.poll()] == [{"x": 1}, {"x": 2}]


def test_stream_tuple_with_image_over_the_wire(served):
    _, _, client = served
    t = StreamTuple(
        tau=1.0, job="J", layer=3,
        payload={"image": np.ones((8, 8), dtype=np.float32)},
    )
    client.producer().send("t", t, key="J/3", timestamp=t.tau)
    got = client.consumer("g", ["t"]).poll()[0].value
    assert isinstance(got, StreamTuple)
    np.testing.assert_array_equal(got.payload["image"], t.payload["image"])


def test_commit_and_committed(served):
    _, _, client = served
    client.ensure_topic("t")
    assert client.committed("g", "t", 0) is None
    client.commit("g", "t", 0, 5)
    assert client.committed("g", "t", 0) == 5
    client.reset_group("g")
    assert client.committed("g", "t", 0) is None
    with pytest.raises(InvalidOffsetError):
        client.commit("g", "t", 0, -1)


def test_offsets_surface(served):
    _, _, client = served
    producer = client.producer()
    for i in range(3):
        producer.send("t", {"i": i})
    assert client.end_offsets("t") == {0: 3}


def test_pickle_refused_at_sender_and_server(served):
    _, _, client = served
    with pytest.raises(PickleRefusedError):
        client.producer().send("t", {"bad": (1, 2)})


def test_pickle_refusing_server_rejects_pickle_frames():
    with BrokerServer(Broker(), allow_pickle=False) as server:
        host, port = server.address
        # a client that *sends* pickle to a server that refuses it
        with BrokerClient(host, port, allow_pickle=True) as client:
            with pytest.raises(PickleRefusedError):
                client.producer().send("t", {"bad": (1, 2)})


def test_pickle_allowed_end_to_end_when_enabled():
    with BrokerServer(Broker(), allow_pickle=True) as server:
        host, port = server.address
        with BrokerClient(host, port, allow_pickle=True) as client:
            client.producer().send("t", {"ok": (1, 2)})
            got = client.consumer("g", ["t"]).poll()[0].value
            assert got == {"ok": (1, 2)}


def test_unknown_op_maps_to_protocol_error(served):
    _, _, client = served
    conn = client.connect()
    with pytest.raises(ProtocolError, match="unknown operation"):
        conn.request("no-such-op", {})
    conn.close()


def test_unmapped_server_error_becomes_rpc_error():
    from repro.net.client import _raise_remote

    with pytest.raises(RpcError) as exc_info:
        _raise_remote({"error": "SomethingExotic", "message": "boom"})
    assert exc_info.value.kind == "SomethingExotic"
    assert "boom" in str(exc_info.value)


def test_heartbeat_and_cluster(served):
    _, server, client = served
    client.heartbeat("w0", {"stages": ["stage-0"]}, {"wall_time": 1.0, "samples": []})
    client.heartbeat("w1", {"stages": ["stage-1"]}, None)
    cluster = client.cluster(include_metrics=True)
    assert set(cluster) == {"w0", "w1"}
    assert cluster["w0"]["info"]["stages"] == ["stage-0"]
    assert cluster["w0"]["metrics"] == {"wall_time": 1.0, "samples": []}
    assert cluster["w0"]["age_s"] >= 0.0
    assert set(server.workers()) == {"w0", "w1"}
