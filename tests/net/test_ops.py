"""The op table: the frozen wire surface, every op's reply keys as a live
server answers them, and the checks on both sides of the socket."""

import socket
import threading
import time

import pytest

from repro.net import OPS, BrokerClient, BrokerServer, ProtocolError
from repro.net.frames import (
    TYPE_ERROR,
    TYPE_REQUEST,
    TYPE_RESPONSE,
    Frame,
    read_frame,
    write_frame,
)
from repro.net.ops import check_request, parse_request
from repro.pubsub import Broker
from repro.serde import encode_wire

#: the v2 wire surface, frozen: renaming or dropping an op (or a request
#: field) breaks old peers mid-upgrade, so this only ever grows
V2_OPS = {
    "ping": set(),
    "produce": {
        "topic", "key", "timestamp", "headers", "partition", "auto_create", "partitions",
    },
    "produce_batch": {"topic", "entries", "auto_create", "partitions"},
    "fetch": {"topic", "partition", "offset", "max_records", "timeout"},
    "commit": {"group", "topic", "partition", "offset"},
    "committed": {"group", "topic", "partition"},
    "reset_group": {"group", "topics"},
    "create_topic": {"topic", "partitions", "retention"},
    "ensure_topic": {"topic", "partitions", "retention"},
    "list_topics": set(),
    "partitions": {"topic"},
    "offsets": {"topic", "partition"},
    "end_offsets": {"topic"},
    "heartbeat": {"worker", "info", "metrics"},
    "cluster": {"include_metrics"},
}
PAYLOAD_PLANE_OPS = {"transport": set(), "lease": {"count"}, "release": {"slots"}}

#: one request per op that a broker holding topic "t" (one record) answers
SAMPLES = {
    "ping": ({}, ()),
    "produce": ({"topic": "t"}, (encode_wire(1),)),
    "produce_batch": ({"topic": "t", "entries": [{}, {"key": "k"}]},
                      (encode_wire(2), encode_wire(3))),
    "fetch": ({"topic": "t", "partition": 0, "offset": 0}, ()),
    "commit": ({"group": "g", "topic": "t", "partition": 0, "offset": 1}, ()),
    "committed": ({"group": "g", "topic": "t", "partition": 0}, ()),
    "reset_group": ({"group": "g"}, ()),
    "create_topic": ({"topic": "u", "partitions": 2}, ()),
    "ensure_topic": ({"topic": "t"}, ()),
    "list_topics": ({}, ()),
    "partitions": ({"topic": "t"}, ()),
    "offsets": ({"topic": "t", "partition": 0}, ()),
    "end_offsets": ({"topic": "t"}, ()),
    "heartbeat": ({"worker": "w0", "info": {"stages": []}}, ()),
    "cluster": ({"include_metrics": True}, ()),
    "transport": ({}, ()),
    "lease": ({"count": 2}, ()),
    "release": ({"slots": [[0, 1]]}, ()),
}


@pytest.fixture()
def served():
    broker = Broker()
    broker.producer().send("t", 0)
    with BrokerServer(broker) as server:
        with BrokerClient(*server.address) as client:
            conn = client.connect()
            yield server, conn
            conn.close()


def _raw(server, meta):
    """One request frame on a fresh socket, bypassing the client's checks."""
    with socket.create_connection(server.address, timeout=10.0) as sock:
        write_frame(sock, Frame(TYPE_REQUEST, 7, meta))
        return read_frame(sock)


def test_table_covers_the_full_wire_surface():
    surface = {**V2_OPS, **PAYLOAD_PLANE_OPS}
    assert set(surface) <= set(OPS)
    for op, fields in surface.items():
        assert fields <= set(OPS[op][0]), op


def test_every_op_has_a_sample():
    assert set(SAMPLES) == set(OPS)


def test_request_meta_uses_field_names_as_wire_keys(served):
    server, _ = served
    seen = []
    handle = server._handle_frame

    def record(c, frame):
        seen.append(dict(frame.meta))
        handle(c, frame)

    server._handle_frame = record
    with BrokerClient(*server.address) as client:
        producer = client.producer()
        producer.send("t", 1, key="k")
        producer.close()
    produce = [meta for meta in seen if meta["op"] == "produce"]
    assert produce and produce[0]["topic"] == "t" and produce[0]["key"] == "k"
    assert set(produce[0]) == {"op"} | V2_OPS["produce"]


@pytest.mark.parametrize("op", sorted(OPS))
def test_every_request_roundtrips_through_meta(op):
    meta, _ = SAMPLES[op]
    check_request(op, meta)
    parsed_op, request = parse_request({"op": op, **meta})
    assert parsed_op == op
    assert set(request) == set(OPS[op][0])
    assert all(request[name] == value for name, value in meta.items())
    assert parse_request({"op": op, **request}) == (op, request)


@pytest.mark.parametrize("op", sorted(OPS))
def test_every_response_roundtrips_through_meta(served, op):
    """A live server answers each op with exactly the row's reply keys."""
    _, conn = served
    meta, blobs = SAMPLES[op]
    reply = conn.request(op, meta, blobs)
    assert reply.type == TYPE_RESPONSE
    assert set(reply.meta) == set(OPS[op][1])


def test_unknown_op_raises_protocol_error(served):
    server, _ = served
    for meta in ({"op": "warp"}, {}):
        reply = _raw(server, meta)
        assert reply.type == TYPE_ERROR and reply.corr_id == 7
        assert reply.meta["error"] == "ProtocolError"
        assert "unknown operation" in reply.meta["message"]


def test_missing_required_field_raises_protocol_error(served):
    server, _ = served
    reply = _raw(server, {"op": "fetch", "topic": "t"})
    assert reply.type == TYPE_ERROR
    assert reply.meta["error"] == "ProtocolError"
    assert reply.meta["message"] == "malformed 'fetch' request: missing partition, offset"


def test_unknown_meta_keys_are_ignored_for_forward_compat(served):
    server, conn = served
    reply = _raw(server, {"op": "ping", "future_flag": True, "another": 1})
    assert reply.type == TYPE_RESPONSE and reply.meta == {"ok": True}
    # a reply may carry keys this client does not know
    server._handlers["ping"] = lambda conn, req, blobs: ({"ok": True, "mood": "fine"}, [])
    assert conn.request("ping").meta["ok"] is True


def test_lease_defaults(served):
    server, _ = served
    reply = _raw(server, {"op": "lease"})  # count defaults to 1; tcp grants none
    assert reply.type == TYPE_RESPONSE and reply.meta == {"slots": []}
    reply = _raw(server, {"op": "heartbeat", "worker": "w9"})
    assert reply.type == TYPE_RESPONSE
    assert server.workers()["w9"]["info"] == {}


def test_client_checks_what_it_sends(served):
    _, conn = served
    with pytest.raises(ProtocolError, match="unknown operation 'warp'"):
        conn.request("warp")
    with pytest.raises(ProtocolError, match="missing partition, offset"):
        conn.request("fetch", {"topic": "t"})
    with pytest.raises(ProtocolError, match=r"has no field\(s\) \['bogus'\]"):
        conn.request("ping", {"bogus": 1})
    assert conn.request("ping").meta == {"ok": True}  # the connection still works


def test_client_refuses_a_reply_missing_a_key(served):
    server, conn = served
    server._handlers["offsets"] = lambda conn, req, blobs: ({"start": 0}, [])
    with pytest.raises(ProtocolError, match="'offsets' reply lacks end"):
        conn.request("offsets", {"topic": "t", "partition": 0})


def test_fetch_blocking_hint(served):
    """Only a fetch with a timeout and nothing to return leaves the loop."""
    server, conn = served
    request = {"topic": "t", "partition": 0, "offset": 1}
    assert conn.request("fetch", request).meta["records"] == []  # no timeout
    # records already there: answered on the loop, timeout or not
    reply = conn.request("fetch", {**request, "offset": 0, "timeout": 5.0})
    assert [r["offset"] for r in reply.meta["records"]] == [0]
    # nothing yet: parked on a fetch thread until a record lands
    got = []
    waiter = threading.Thread(
        target=lambda: got.append(conn.request("fetch", {**request, "timeout": 5.0}))
    )
    waiter.start()
    deadline = time.monotonic() + 5.0
    while not any(t.name == "broker-server-fetch" for t in threading.enumerate()):
        assert time.monotonic() < deadline, "the fetch never left the loop"
        time.sleep(0.01)
    server.broker.producer().send("t", 1)
    waiter.join(timeout=10.0)
    assert [r["offset"] for r in got[0].meta["records"]] == [1]

