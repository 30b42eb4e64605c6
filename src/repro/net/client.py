"""Clients for a networked broker.

:class:`BrokerClient` is the connection factory plus the broker-shaped
admin surface (``ensure_topic``/``topics``/``committed``/...) that the
pub/sub connectors bind to. :class:`RemoteProducer` mirrors the in-process
:class:`~repro.pubsub.producer.Producer`; a consumer is the in-process
:class:`~repro.pubsub.consumer.Consumer` itself, reading the served logs
through the five calls of :class:`_RemoteLogs` — so
``PubSubWriterSink``/``PubSubReaderSource`` work unchanged over TCP.

Every op goes through :meth:`Connection.request`: the request is its
frame's meta dict, checked against the one op table in
:mod:`repro.net.ops` before it is sent, and a reply missing a key the
table lists raises :class:`ProtocolError`. On first use the client
negotiates the payload transport (``transport`` op): a server running the
shm plane advertises its slab ring, and a client on the same machine
attaches it so ndarray payloads stop riding TCP; a ring that cannot be
attached from here leaves the client on tcp.

Each producer/consumer owns a private connection: a consumer's blocking
fetch parks its connection server-side, and sharing that socket with a
producer in another scheduler thread would stall the whole stage. Every
connection allows one in-flight request and verifies the response
correlation id.
"""

from __future__ import annotations

import itertools
import socket
import threading
from typing import Any

from ..pubsub.consumer import Consumer
from ..pubsub.errors import (
    BrokerClosedError,
    InvalidOffsetError,
    TopicExistsError,
    UnknownTopicError,
)
from ..pubsub.message import Message
from ..serde import PickleRefusedError, SerdeContext, SerdeError, decode_wire, encode_wire
from .errors import ProtocolError, RpcError
from .frames import (
    MAX_FRAME_BYTES,
    TYPE_ERROR,
    TYPE_REQUEST,
    Frame,
    read_frame,
    write_frame,
)
from .ops import check_reply, check_request
from .shm import ShmProducerPlane, SlabRingError, StaleSlabError
from .transport import ClientTransport, connect_transport

#: server-side exception names mapped back to local exception types
_ERROR_TYPES: dict[str, type[Exception]] = {
    "UnknownTopicError": UnknownTopicError,
    "TopicExistsError": TopicExistsError,
    "InvalidOffsetError": InvalidOffsetError,
    "BrokerClosedError": BrokerClosedError,
    "PickleRefusedError": PickleRefusedError,
    "SerdeError": SerdeError,
    "StaleSlabError": StaleSlabError,
    "SlabRingError": SlabRingError,
    "ProtocolError": ProtocolError,
    "ValueError": ValueError,
}

#: a stale slab handle on the *first* record of a reply means the server
#: reclaimed the slot mid-fetch; the record is spilled server-side by
#: then, so the refetch answers inline and a couple of attempts always
#: converge (a stale record further in just ends the batch early)
_STALE_RETRIES = 3


def _raise_remote(meta: dict) -> None:
    kind = meta.get("error", "RpcError")
    message = meta.get("message", "")
    exc_type = _ERROR_TYPES.get(kind)
    if exc_type is not None:
        raise exc_type(message)
    raise RpcError(kind, message)


class Connection:
    """One socket to a broker server; single in-flight request."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float | None = 60.0,
        max_frame: int = MAX_FRAME_BYTES,
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=10.0)
        self._sock.settimeout(timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._max_frame = max_frame
        self._corr = itertools.count(1)
        self._lock = threading.Lock()
        self._closed = False

    def request(
        self, op: str, meta: dict | None = None, blobs: tuple[bytes, ...] = ()
    ) -> Frame:
        """Send one request and return its response frame.

        ``meta`` holds the request's fields; both it and the reply are
        checked against the op's row of the table.
        """
        meta = meta or {}
        check_request(op, meta)
        payload = {"op": op, **meta}
        with self._lock:
            if self._closed:
                raise BrokerClosedError("connection is closed")
            corr_id = next(self._corr) & 0xFFFFFFFF
            write_frame(self._sock, Frame(TYPE_REQUEST, corr_id, payload, blobs))
            reply = read_frame(self._sock, self._max_frame)
        if reply.corr_id != corr_id:
            raise ProtocolError(
                f"response correlation id {reply.corr_id} != request {corr_id}"
            )
        if reply.type == TYPE_ERROR:
            _raise_remote(reply.meta)
        check_reply(op, reply.meta)
        return reply

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._sock.close()
            except OSError:  # pragma: no cover
                pass


class BrokerClient:
    """Endpoint handle: admin surface + producer/consumer factory.

    Duck-types the slice of :class:`~repro.pubsub.broker.Broker` that the
    connectors and the distributed runtime use; anything record-weight
    goes through a dedicated :meth:`producer`/:meth:`consumer` with its
    own connection.
    """

    def __init__(
        self,
        host: str,
        port: int,
        allow_pickle: bool = False,
        timeout: float | None = 60.0,
    ) -> None:
        self._host = host
        self._port = port
        self._allow_pickle = allow_pickle
        self._timeout = timeout
        self._admin: Connection | None = None
        self._lock = threading.Lock()
        self._transport: ClientTransport | None = None

    @property
    def address(self) -> tuple[str, int]:
        return (self._host, self._port)

    @property
    def allow_pickle(self) -> bool:
        return self._allow_pickle

    def connect(self) -> Connection:
        """A fresh private connection (caller owns its lifecycle)."""
        return Connection(self._host, self._port, timeout=self._timeout)

    def _admin_conn(self) -> Connection:
        with self._lock:
            if self._admin is None:
                self._admin = self.connect()
            return self._admin

    def close(self) -> None:
        with self._lock:
            if self._admin is not None:
                self._admin.close()
                self._admin = None

    def __enter__(self) -> "BrokerClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- payload transport ----------------------------------------------------

    @property
    def transport(self) -> ClientTransport:
        """The negotiated payload transport (lazily resolved, cached).

        An shm ring that cannot be attached from here (it is on another
        machine) resolves to plain tcp.
        """
        with self._lock:
            if self._transport is not None:
                return self._transport
        reply = self._admin_conn().request("transport")
        transport = connect_transport(reply.meta["transport"])
        with self._lock:
            if self._transport is None:
                self._transport = transport
            return self._transport

    # -- readiness ----------------------------------------------------------

    def ping(self) -> bool:
        return bool(self._admin_conn().request("ping").meta["ok"])

    def wait_ready(self, timeout: float = 10.0, interval: float = 0.05) -> None:
        """Block until the server answers a ping (connection retries)."""
        import time

        deadline = time.monotonic() + timeout
        last: Exception | None = None
        while time.monotonic() < deadline:
            try:
                if self.ping():
                    return
            except (OSError, ProtocolError) as exc:
                last = exc
                with self._lock:
                    if self._admin is not None:
                        self._admin.close()
                        self._admin = None
            time.sleep(interval)
        raise TimeoutError(
            f"broker at {self._host}:{self._port} not ready within {timeout}s"
        ) from last

    # -- broker-shaped admin surface ----------------------------------------

    def create_topic(
        self, name: str, partitions: int = 1, retention: int | None = None
    ) -> int:
        reply = self._admin_conn().request(
            "create_topic",
            {"topic": name, "partitions": partitions, "retention": retention},
        )
        return int(reply.meta["partitions"])

    def ensure_topic(
        self, name: str, partitions: int = 1, retention: int | None = None
    ) -> int:
        reply = self._admin_conn().request(
            "ensure_topic",
            {"topic": name, "partitions": partitions, "retention": retention},
        )
        return int(reply.meta["partitions"])

    def topics(self) -> list[str]:
        return list(self._admin_conn().request("list_topics").meta["topics"])

    def has_topic(self, name: str) -> bool:
        return name in self.topics()

    def partitions(self, topic: str) -> int:
        return int(
            self._admin_conn().request("partitions", {"topic": topic}).meta["partitions"]
        )

    def end_offsets(self, topic: str) -> dict[int, int]:
        reply = self._admin_conn().request("end_offsets", {"topic": topic})
        return {int(p): int(end) for p, end in reply.meta["offsets"].items()}

    def committed(self, group: str, topic: str, partition: int) -> int | None:
        reply = self._admin_conn().request(
            "committed", {"group": group, "topic": topic, "partition": partition}
        )
        offset = reply.meta["offset"]
        return None if offset is None else int(offset)

    def commit(self, group: str, topic: str, partition: int, offset: int) -> None:
        self._admin_conn().request(
            "commit",
            {"group": group, "topic": topic, "partition": partition, "offset": offset},
        )

    def reset_group(self, group: str, topics: list[str] | None = None) -> None:
        self._admin_conn().request(
            "reset_group", {"group": group, "topics": list(topics) if topics else None}
        )

    # -- distributed-runtime surface ----------------------------------------

    def heartbeat(
        self,
        worker: str,
        info: dict | None = None,
        metrics: dict | None = None,
    ) -> None:
        self._admin_conn().request(
            "heartbeat", {"worker": worker, "info": info or {}, "metrics": metrics}
        )

    def cluster(self, include_metrics: bool = False) -> dict[str, dict]:
        reply = self._admin_conn().request(
            "cluster", {"include_metrics": include_metrics}
        )
        return dict(reply.meta["workers"])

    # -- client factory -------------------------------------------------------

    def producer(
        self, auto_create: bool = True, default_partitions: int = 1
    ) -> "RemoteProducer":
        transport = self.transport
        conn = self.connect()

        def lease_fn(count: int) -> list[tuple[int, int]]:
            slots = conn.request("lease", {"count": count}).meta["slots"]
            return [(int(s), int(g)) for s, g in slots]

        def release_fn(pairs: list[tuple[int, int]]) -> int:
            reply = conn.request("release", {"slots": [list(p) for p in pairs]})
            return int(reply.meta["released"])

        return RemoteProducer(
            conn,
            allow_pickle=self._allow_pickle,
            auto_create=auto_create,
            default_partitions=default_partitions,
            producer_plane=transport.producer_plane(lease_fn, release_fn),
        )

    def consumer(
        self,
        group: str,
        topics: list[str] | None = None,
        auto_offset_reset: str = "earliest",
        auto_commit: bool = True,
    ) -> Consumer:
        """A consumer with a private connection; ``close()`` it when done."""
        ctx = SerdeContext(self._allow_pickle, ring=self.transport.ring)
        conn = self.connect()
        return Consumer(
            _RemoteLogs(conn, ctx),
            group,
            topics,
            auto_offset_reset,
            auto_commit,
            on_close=conn.close,
        )


class RemoteProducer:
    """Drop-in :class:`~repro.pubsub.producer.Producer` over a connection.

    Under the shm transport the serde context carries this connection's
    producer plane, so eligible ndarray payloads go into leased slabs and
    only their handles ride the socket. :meth:`send_batch` publishes many
    records in a single ``produce_batch`` frame written with vectored I/O
    — the path the pub/sub writer sink uses to amortize round trips.
    """

    def __init__(
        self,
        conn: Connection,
        allow_pickle: bool = False,
        auto_create: bool = True,
        default_partitions: int = 1,
        producer_plane: ShmProducerPlane | None = None,
    ) -> None:
        self._conn = conn
        self._auto_create = auto_create
        self._default_partitions = default_partitions
        self._ctx = SerdeContext(allow_pickle, producer_plane=producer_plane)
        self._sent = 0

    @property
    def records_sent(self) -> int:
        return self._sent

    def send(
        self,
        topic: str,
        value: Any,
        key: str | None = None,
        timestamp: float | None = None,
        headers: dict[str, Any] | None = None,
        partition: int | None = None,
    ) -> tuple[int, int]:
        """Publish one record; returns its ``(partition, offset)``."""
        blob = encode_wire(value, context=self._ctx)
        reply = self._conn.request(
            "produce",
            {
                "topic": topic,
                "key": key,
                "timestamp": timestamp,
                "headers": headers,
                "partition": partition,
                "auto_create": self._auto_create,
                "partitions": self._default_partitions,
            },
            (blob,),
        ).meta
        self._sent += 1
        return int(reply["partition"]), int(reply["offset"])

    def send_batch(
        self, topic: str, records: list[dict[str, Any]]
    ) -> list[tuple[int, int]]:
        """Publish many records to one topic in a single round trip.

        Each record is a dict with ``value`` plus optional ``key`` /
        ``timestamp`` / ``headers`` / ``partition``. Returns the
        ``(partition, offset)`` pairs in input order.
        """
        if not records:
            return []
        blobs = tuple(
            encode_wire(record["value"], context=self._ctx) for record in records
        )
        entries = [
            {
                "key": record.get("key"),
                "timestamp": record.get("timestamp"),
                "headers": record.get("headers"),
                "partition": record.get("partition"),
            }
            for record in records
        ]
        results = self._conn.request(
            "produce_batch",
            {
                "topic": topic,
                "entries": entries,
                "auto_create": self._auto_create,
                "partitions": self._default_partitions,
            },
            blobs,
        ).meta["results"]
        self._sent += len(records)
        return [(int(p), int(o)) for p, o in results]

    def partitions_of(self, topic: str) -> int:
        """Partition count of ``topic`` (for per-partition broadcasts)."""
        return int(
            self._conn.request("partitions", {"topic": topic}).meta["partitions"]
        )

    def close(self) -> None:
        plane, self._ctx.producer_plane = self._ctx.producer_plane, None
        if plane is not None:
            plane.close()  # returns unused slab leases over the conn
        self._conn.close()


class _RemoteLogs:
    """The partition logs of a served broker, over one private connection.

    The :class:`~repro.pubsub.consumer.PartitionLogs` a
    :meth:`BrokerClient.consumer` reads through: it hides the wire format
    and, under the shm transport, the slab handles a fetch reply carries.
    """

    def __init__(self, conn: Connection, ctx: SerdeContext) -> None:
        self._conn = conn
        self._ctx = ctx

    def partitions(self, topic: str) -> int:
        return int(
            self._conn.request("partitions", {"topic": topic}).meta["partitions"]
        )

    def offsets(self, topic: str, partition: int) -> tuple[int, int]:
        meta = self._conn.request(
            "offsets", {"topic": topic, "partition": partition}
        ).meta
        return int(meta["start"]), int(meta["end"])

    def fetch(
        self, topic: str, partition: int, offset: int, max_records: int, timeout: float
    ) -> list[Message]:
        request = {
            "topic": topic,
            "partition": partition,
            "offset": offset,
            "max_records": max_records,
            "timeout": timeout,
        }
        for _attempt in range(_STALE_RETRIES):
            frame = self._conn.request("fetch", request)
            records = []
            try:
                for record_meta, blob in zip(frame.meta["records"], frame.blobs):
                    records.append(
                        Message(
                            topic=topic,
                            partition=partition,
                            offset=int(record_meta["offset"]),
                            key=record_meta["key"],
                            value=decode_wire(blob, context=self._ctx),
                            timestamp=float(record_meta["timestamp"]),
                            headers=dict(record_meta.get("headers") or {}),
                        )
                    )
            except StaleSlabError:
                # The server reclaimed a slab between encoding the reply
                # and our copy-out. Keep what already decoded — the next
                # fetch starts at the stale record, which the server has
                # spilled by now and answers inline. Only a stale *first*
                # record leaves nothing to return: refetch right away.
                if not records:
                    continue
            return records
        raise StaleSlabError(
            f"fetch of {topic}/{partition} kept racing slab reclamation "
            f"({_STALE_RETRIES} attempts)"
        )

    def commit(self, group: str, topic: str, partition: int, offset: int) -> None:
        self._conn.request(
            "commit",
            {"group": group, "topic": topic, "partition": partition, "offset": offset},
        )

    def committed(self, group: str, topic: str, partition: int) -> int | None:
        offset = self._conn.request(
            "committed", {"group": group, "topic": topic, "partition": partition}
        ).meta["offset"]
        return None if offset is None else int(offset)
