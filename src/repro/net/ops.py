"""The broker RPC surface as one typed op table.

Historically the server grew an ``_op_<name>`` method per operation and
the client grew a hand-rolled mirror method, so adding one op meant four
edits that could drift apart. This module is the single source of truth
both sides share: every operation is a **request dataclass**, a
**response dataclass**, and one :class:`OpSpec` row of the :data:`OPS`
table naming them under the wire name. The server dispatches requests
through the table (:func:`parse_request`), the client builds them through
it (:func:`request_meta`), and adding an operation — the shm payload
plane's ``lease``/``release``, for example — is one row here plus one
handler.

The wire format is unchanged: a request's meta is still a flat JSON
object ``{"op": <name>, ...fields...}`` with exactly the key names the
v2 frame protocol always used, so old and new peers interoperate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Callable

from .errors import ProtocolError

# -- request/response dataclasses --------------------------------------------
# Field names ARE the wire meta keys; do not rename without a protocol bump.


@dataclass(frozen=True)
class PingRequest:
    pass


@dataclass(frozen=True)
class PingResponse:
    ok: bool = True


@dataclass(frozen=True)
class ProduceRequest:
    topic: str
    key: str | None = None
    timestamp: float | None = None
    headers: dict[str, Any] | None = None
    partition: int | None = None
    auto_create: bool = True
    partitions: int = 1


@dataclass(frozen=True)
class ProduceResponse:
    partition: int
    offset: int


@dataclass(frozen=True)
class ProduceBatchRequest:
    """Many records for one topic in a single frame (one blob each).

    ``entries`` carries the per-record scalars positionally aligned with
    the frame's blobs; the response returns one ``[partition, offset]``
    pair per record in the same order.
    """

    topic: str
    entries: list[dict[str, Any]] = field(default_factory=list)
    auto_create: bool = True
    partitions: int = 1


@dataclass(frozen=True)
class ProduceBatchResponse:
    results: list[list[int]] = field(default_factory=list)


@dataclass(frozen=True)
class FetchRequest:
    topic: str
    partition: int
    offset: int
    max_records: int = 1024
    timeout: float = 0.0


@dataclass(frozen=True)
class FetchResponse:
    records: list[dict[str, Any]] = field(default_factory=list)


@dataclass(frozen=True)
class CommitRequest:
    group: str
    topic: str
    partition: int
    offset: int


@dataclass(frozen=True)
class CommitResponse:
    pass


@dataclass(frozen=True)
class CommittedRequest:
    group: str
    topic: str
    partition: int


@dataclass(frozen=True)
class CommittedResponse:
    offset: int | None = None


@dataclass(frozen=True)
class ResetGroupRequest:
    group: str
    topics: list[str] | None = None


@dataclass(frozen=True)
class ResetGroupResponse:
    pass


@dataclass(frozen=True)
class CreateTopicRequest:
    topic: str
    partitions: int = 1
    retention: int | None = None


@dataclass(frozen=True)
class TopicResponse:
    partitions: int = 1


@dataclass(frozen=True)
class ListTopicsRequest:
    pass


@dataclass(frozen=True)
class ListTopicsResponse:
    topics: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class PartitionsRequest:
    topic: str


@dataclass(frozen=True)
class OffsetsRequest:
    topic: str
    partition: int


@dataclass(frozen=True)
class OffsetsResponse:
    start: int = 0
    end: int = 0


@dataclass(frozen=True)
class EndOffsetsRequest:
    topic: str


@dataclass(frozen=True)
class EndOffsetsResponse:
    offsets: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class HeartbeatRequest:
    worker: str
    info: dict[str, Any] = field(default_factory=dict)
    metrics: dict[str, Any] | None = None


@dataclass(frozen=True)
class HeartbeatResponse:
    pass


@dataclass(frozen=True)
class ClusterRequest:
    include_metrics: bool = False


@dataclass(frozen=True)
class ClusterResponse:
    workers: dict[str, dict[str, Any]] = field(default_factory=dict)


@dataclass(frozen=True)
class TransportRequest:
    """Ask the server which payload transport this broker speaks."""

    pass


@dataclass(frozen=True)
class TransportResponse:
    transport: dict[str, Any] = field(default_factory=lambda: {"name": "tcp"})


@dataclass(frozen=True)
class LeaseRequest:
    """Lease up to ``count`` payload slabs for this connection."""

    count: int = 1


@dataclass(frozen=True)
class LeaseResponse:
    #: granted ``[slot, generation]`` pairs; may be shorter than requested
    #: (empty = ring full, caller falls back to inline payloads)
    slots: list[list[int]] = field(default_factory=list)


@dataclass(frozen=True)
class ReleaseRequest:
    """Return unused leased slabs (``[slot, generation]`` pairs)."""

    slots: list[list[int]] = field(default_factory=list)


@dataclass(frozen=True)
class ReleaseResponse:
    released: int = 0


# -- the table ----------------------------------------------------------------


@dataclass(frozen=True)
class OpSpec:
    """One operation: wire name, typed shapes, server dispatch hints."""

    name: str
    request: type
    response: type
    #: given the parsed request, may the handler park its thread? (the
    #: async server runs such requests off the event loop)
    may_block: Callable[[Any], bool] | None = None


OPS: dict[str, OpSpec] = {
    spec.name: spec
    for spec in (
        OpSpec("ping", PingRequest, PingResponse),
        OpSpec("produce", ProduceRequest, ProduceResponse),
        OpSpec("produce_batch", ProduceBatchRequest, ProduceBatchResponse),
        OpSpec("fetch", FetchRequest, FetchResponse, may_block=lambda r: r.timeout > 0),
        OpSpec("commit", CommitRequest, CommitResponse),
        OpSpec("committed", CommittedRequest, CommittedResponse),
        OpSpec("reset_group", ResetGroupRequest, ResetGroupResponse),
        OpSpec("create_topic", CreateTopicRequest, TopicResponse),
        OpSpec("ensure_topic", CreateTopicRequest, TopicResponse),
        OpSpec("list_topics", ListTopicsRequest, ListTopicsResponse),
        OpSpec("partitions", PartitionsRequest, TopicResponse),
        OpSpec("offsets", OffsetsRequest, OffsetsResponse),
        OpSpec("end_offsets", EndOffsetsRequest, EndOffsetsResponse),
        OpSpec("heartbeat", HeartbeatRequest, HeartbeatResponse),
        OpSpec("cluster", ClusterRequest, ClusterResponse),
        OpSpec("transport", TransportRequest, TransportResponse),
        OpSpec("lease", LeaseRequest, LeaseResponse),
        OpSpec("release", ReleaseRequest, ReleaseResponse),
    )
}


# -- meta <-> dataclass -------------------------------------------------------


def request_meta(name: str, request: Any) -> dict[str, Any]:
    """The wire meta object for a typed request (shallow, field = key)."""
    meta: dict[str, Any] = {"op": name}
    for f in fields(request):
        meta[f.name] = getattr(request, f.name)
    return meta


def parse_request(meta: dict[str, Any]) -> tuple[OpSpec, Any]:
    """Typed request from a frame's meta; unknown op raises ProtocolError."""
    op = meta.get("op")
    spec = OPS.get(op)
    if spec is None:
        raise ProtocolError(f"unknown operation {op!r}")
    known = {f.name for f in fields(spec.request)}
    kwargs = {k: v for k, v in meta.items() if k in known}
    try:
        return spec, spec.request(**kwargs)
    except TypeError as exc:
        raise ProtocolError(f"malformed {op!r} request: {exc}") from exc


def response_meta(response: Any) -> dict[str, Any]:
    """The wire meta object for a typed response."""
    return {f.name: getattr(response, f.name) for f in fields(response)}


def parse_response(spec: OpSpec, meta: dict[str, Any]) -> Any:
    """Typed response from a reply frame's meta (lenient to extra keys)."""
    known = {f.name for f in fields(spec.response)}
    kwargs = {k: v for k, v in meta.items() if k in known}
    try:
        return spec.response(**kwargs)
    except TypeError as exc:
        raise ProtocolError(
            f"malformed {spec.name!r} response: {exc}"
        ) from exc
