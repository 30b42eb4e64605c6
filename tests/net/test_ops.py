"""The typed op table: wire-name compatibility and meta round-trips."""

from dataclasses import fields

import pytest

from repro.net import OPS
from repro.net.errors import ProtocolError
from repro.net.ops import (
    FetchRequest,
    LeaseRequest,
    PingRequest,
    ProduceRequest,
    parse_request,
    parse_response,
    request_meta,
    response_meta,
)

#: the v2 wire surface, frozen: renaming or dropping an op (or a request
#: field) breaks old peers mid-upgrade, so this list only ever grows
V2_OPS = {
    "ping", "produce", "produce_batch", "fetch", "commit", "committed",
    "reset_group", "create_topic", "ensure_topic", "list_topics",
    "partitions", "offsets", "end_offsets", "heartbeat", "cluster",
}
PAYLOAD_PLANE_OPS = {"transport", "lease", "release"}


def test_table_covers_the_full_wire_surface():
    assert V2_OPS | PAYLOAD_PLANE_OPS <= set(OPS)


def test_request_meta_uses_field_names_as_wire_keys():
    meta = request_meta("produce", ProduceRequest(topic="t", key="k"))
    assert meta["op"] == "produce"
    assert meta["topic"] == "t" and meta["key"] == "k"
    assert set(meta) == {
        "op", "topic", "key", "timestamp", "headers", "partition",
        "auto_create", "partitions",
    }


@pytest.mark.parametrize("name", sorted(V2_OPS | PAYLOAD_PLANE_OPS))
def test_every_request_roundtrips_through_meta(name):
    spec = OPS[name]
    request = (
        spec.request() if not _required(spec.request) else _sample(spec.request)
    )
    meta = request_meta(name, request)
    parsed_spec, parsed = parse_request(meta)
    assert parsed_spec is spec
    assert parsed == request


@pytest.mark.parametrize("name", sorted(V2_OPS | PAYLOAD_PLANE_OPS))
def test_every_response_roundtrips_through_meta(name):
    spec = OPS[name]
    response = spec.response() if not _required(spec.response) else _sample(
        spec.response
    )
    meta = response_meta(response)
    assert parse_response(spec, meta) == response


def _required(cls):
    import dataclasses

    return [
        f for f in fields(cls)
        if f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    ]


_SAMPLES = {
    str: "t", int: 0, float: 0.0, bool: True,
}


def _sample(cls):
    kwargs = {}
    for f in _required(cls):
        for type_, value in _SAMPLES.items():
            if f.type.startswith(type_.__name__):
                kwargs[f.name] = value
                break
        else:
            kwargs[f.name] = "t"
    return cls(**kwargs)


def test_unknown_op_raises_protocol_error():
    with pytest.raises(ProtocolError, match="unknown operation 'warp'"):
        parse_request({"op": "warp"})
    with pytest.raises(ProtocolError, match="unknown operation"):
        parse_request({})


def test_missing_required_field_raises_protocol_error():
    with pytest.raises(ProtocolError, match="malformed 'fetch' request"):
        parse_request({"op": "fetch", "topic": "t"})  # no partition/offset


def test_unknown_meta_keys_are_ignored_for_forward_compat():
    spec, request = parse_request(
        {"op": "ping", "future_flag": True, "another": 1}
    )
    assert request == PingRequest()
    response = parse_response(spec, {"ok": True, "server_mood": "fine"})
    assert response.ok is True


def test_fetch_blocking_hint():
    spec = OPS["fetch"]
    assert spec.may_block is not None
    assert spec.may_block(FetchRequest(topic="t", partition=0, offset=0)) is False
    assert spec.may_block(
        FetchRequest(topic="t", partition=0, offset=0, timeout=1.0)
    ) is True


def test_lease_defaults():
    spec, request = parse_request({"op": "lease"})
    assert request == LeaseRequest(count=1)
