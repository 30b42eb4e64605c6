"""The broker RPC surface as one table both peers read.

Every operation is one row of :data:`OPS`: its wire name, the request
fields with their defaults (or :data:`REQUIRED`), and the keys its reply
carries. A request and a reply are nothing but their frame's meta dict —
``{"op": <name>, ...fields...}`` one way, ``{...reply keys...}`` the
other — so the table is also the wire format's definition. The server
parses a request against the table (:func:`parse_request`: unknown op or
missing required field raise :class:`ProtocolError`, unknown extra keys
are ignored so newer peers may add fields); the client checks what it
sends and what comes back (:func:`check_request`, :func:`check_reply`).
Adding an operation is one row here plus one server handler.
"""

from __future__ import annotations

from typing import Any

from .errors import ProtocolError

#: marks a request field the sender must supply
REQUIRED: Any = object()

#: op -> (request fields with defaults or REQUIRED, reply keys). Field and
#: key names ARE the wire meta keys; do not rename without a protocol
#: bump. Defaults are shared between requests and never mutated.
OPS: dict[str, tuple[dict[str, Any], tuple[str, ...]]] = {
    "ping": ({}, ("ok",)),
    "produce": (
        {
            "topic": REQUIRED,
            "key": None,
            "timestamp": None,
            "headers": None,
            "partition": None,
            "auto_create": True,
            "partitions": 1,
        },
        ("partition", "offset"),
    ),
    # many records for one topic in one frame: ``entries`` carries each
    # record's key/timestamp/headers/partition aligned with the frame's
    # blobs; ``results`` one [partition, offset] pair per record, in order
    "produce_batch": (
        {"topic": REQUIRED, "entries": (), "auto_create": True, "partitions": 1},
        ("results",),
    ),
    "fetch": (
        {
            "topic": REQUIRED,
            "partition": REQUIRED,
            "offset": REQUIRED,
            "max_records": 1024,
            "timeout": 0.0,
        },
        ("records",),
    ),
    "commit": (
        {"group": REQUIRED, "topic": REQUIRED, "partition": REQUIRED, "offset": REQUIRED},
        (),
    ),
    "committed": (
        {"group": REQUIRED, "topic": REQUIRED, "partition": REQUIRED},
        ("offset",),
    ),
    "reset_group": ({"group": REQUIRED, "topics": None}, ()),
    "create_topic": (
        {"topic": REQUIRED, "partitions": 1, "retention": None},
        ("partitions",),
    ),
    "ensure_topic": (
        {"topic": REQUIRED, "partitions": 1, "retention": None},
        ("partitions",),
    ),
    "list_topics": ({}, ("topics",)),
    "partitions": ({"topic": REQUIRED}, ("partitions",)),
    "offsets": ({"topic": REQUIRED, "partition": REQUIRED}, ("start", "end")),
    "end_offsets": ({"topic": REQUIRED}, ("offsets",)),
    "heartbeat": ({"worker": REQUIRED, "info": None, "metrics": None}, ()),
    "cluster": ({"include_metrics": False}, ("workers",)),
    # the payload transport this broker speaks ({"name": "tcp"} or shm's)
    "transport": ({}, ("transport",)),
    # lease up to ``count`` payload slabs for this connection: granted
    # [slot, generation] pairs, possibly fewer (none = ring full, inline)
    "lease": ({"count": 1}, ("slots",)),
    # return unused leased slabs
    "release": ({"slots": ()}, ("released",)),
}


def _fields(op: Any, meta: dict[str, Any]) -> dict[str, Any]:
    """The op's request fields, once ``meta`` is known to hold the required ones."""
    row = OPS.get(op)
    if row is None:
        raise ProtocolError(f"unknown operation {op!r}")
    missing = [name for name, v in row[0].items() if v is REQUIRED and name not in meta]
    if missing:
        raise ProtocolError(f"malformed {op!r} request: missing {', '.join(missing)}")
    return row[0]


def parse_request(meta: dict[str, Any]) -> tuple[str, dict[str, Any]]:
    """``(op, request)`` from a frame's meta: every field of the op, given
    or defaulted; keys the table does not list are dropped."""
    op = meta.get("op")
    fields = _fields(op, meta)
    return op, {name: meta.get(name, default) for name, default in fields.items()}


def check_request(op: str, meta: dict[str, Any]) -> None:
    """Refuse a request the table does not describe before it is sent."""
    unknown = meta.keys() - _fields(op, meta).keys()
    if unknown:
        raise ProtocolError(f"{op!r} request has no field(s) {sorted(unknown)}")


def check_reply(op: str, meta: dict[str, Any]) -> None:
    """Refuse a reply that lacks a key the table lists for ``op``."""
    missing = [key for key in OPS[op][1] if key not in meta]
    if missing:
        raise ProtocolError(f"{op!r} reply lacks {', '.join(missing)}")
