"""Async TCP server exposing an in-process :class:`~repro.pubsub.broker.Broker`.

One :class:`BrokerServer` wraps one broker instance and serves the full
client surface the connectors need — produce (single and batched), fetch
(with blocking waits), consumer-group commit/committed, topic admin —
plus worker heartbeats for the distributed runtime and the payload
transport handshake (``transport``/``lease``/``release``).

The server is a single selector event loop rather than a thread per
connection: sockets are non-blocking, reads go through an incremental
:class:`~repro.net.frames.FrameDecoder`, and replies leave through
per-connection write queues flushed with vectored I/O. Fast operations
run inline on the loop thread (the broker is thread-safe and every
handler is a dict lookup plus an append or read); only operations the op
table marks ``may_block`` — blocking fetches — that really have to wait
are handed to short-lived daemon threads so a quiet partition never
stalls the loop. Requests are
parsed through the typed op table in :mod:`repro.net.ops`, so the server
has no string-dispatch surface of its own.

Record values cross the wire through the serde wire codec and are stored
*decoded*, which keeps in-process producers/consumers attached to the
same broker fully interoperable with remote ones. Under the shm
transport, "decoded" means a :class:`~repro.net.shm.SlabRef` — payload
arrays stay in the shared ring and fetch replies re-encode to ~100-byte
handles. A reader living in the server's own process attaches through
:meth:`BrokerServer.consumer` instead of a socket: it reads the log in
place and has the transport resolve such refs at read time, with no
encode, no decode and no fetch thread.

Pickle frames are refused by default (``allow_pickle=False``): a network
peer must not be able to run arbitrary bytecode in the broker process.
The distributed runtime, which owns both ends of its loopback links,
enables pickle explicitly.
"""

from __future__ import annotations

import dataclasses
import itertools
import logging
import selectors
import socket
import threading
import time
from collections import deque
from typing import Any

from ..pubsub.broker import Broker
from ..pubsub.consumer import Consumer
from ..pubsub.errors import InvalidOffsetError
from ..pubsub.message import Message
from ..pubsub.producer import Producer
from ..serde import SerdeContext, decode_wire, encode_wire
from .errors import ProtocolError
from .frames import (
    MAX_FRAME_BYTES,
    TYPE_ERROR,
    TYPE_REQUEST,
    TYPE_RESPONSE,
    Frame,
    FrameDecoder,
    frame_iovecs,
)
from .ops import (
    ClusterResponse,
    CommittedResponse,
    EndOffsetsResponse,
    FetchResponse,
    LeaseResponse,
    ListTopicsResponse,
    OffsetsResponse,
    PingResponse,
    ProduceBatchResponse,
    ProduceResponse,
    ReleaseResponse,
    TopicResponse,
    TransportResponse,
    parse_request,
    response_meta,
)
from .shm import ShmServerPlane
from .transport import ServerTransport, make_server_transport

logger = logging.getLogger(__name__)

#: cap on server-side blocking fetch waits, so a vanished client cannot
#: park a handler thread forever on a quiet partition
MAX_FETCH_BLOCK_S = 30.0

#: soft byte budget for one fetch reply: stop adding records once the
#: encoded blobs pass this, so a burst of large payloads never builds a
#: reply frame over MAX_FRAME_BYTES (the client just fetches again)
FETCH_REPLY_SOFT_BYTES = 32 * 1024 * 1024

_RECV_CHUNK = 1 << 18
_IOV_BATCH = 512


class _Conn:
    """Per-connection loop state."""

    __slots__ = ("sock", "token", "decoder", "out", "off", "close_after_flush")

    def __init__(self, sock: socket.socket, token: int, max_frame: int) -> None:
        self.sock = sock
        self.token = token
        self.decoder = FrameDecoder(max_frame)
        self.out: deque[bytes] = deque()  # pending outbound buffers
        self.off = 0  # bytes of out[0] already sent
        self.close_after_flush = False


class BrokerServer:
    """Serves one broker over TCP until :meth:`stop`."""

    def __init__(
        self,
        broker: Broker,
        host: str = "127.0.0.1",
        port: int = 0,
        allow_pickle: bool = False,
        max_frame: int = MAX_FRAME_BYTES,
        transport: "str | ServerTransport | ShmServerPlane" = "tcp",
        transport_options: dict[str, Any] | None = None,
    ) -> None:
        self._broker = broker
        self._host = host
        self._port = port
        self._allow_pickle = allow_pickle
        self._max_frame = max_frame
        if isinstance(transport, str):
            transport = make_server_transport(transport, **(transport_options or {}))
        self._transport = transport
        # one context both ways: only a produce's decode uses the plane
        self._ctx = SerdeContext(
            allow_pickle,
            server_plane=transport if isinstance(transport, ShmServerPlane) else None,
        )
        self._listener: socket.socket | None = None
        self._loop_thread: threading.Thread | None = None
        self._selector: selectors.BaseSelector | None = None
        self._conns: dict[socket.socket, _Conn] = {}
        self._tokens = itertools.count(1)
        self._lock = threading.Lock()
        self._stopping = threading.Event()
        self._drain_deadline: float | None = None
        self._deadline_hit = False
        # cross-thread reply completions (blocking fetches) + wakeup pipe
        self._pending: deque[tuple[_Conn, Frame]] = deque()
        self._wake_r: socket.socket | None = None
        self._wake_w: socket.socket | None = None
        # worker name -> {"info": ..., "metrics": ..., "last_seen": ...}
        self._heartbeats: dict[str, dict[str, Any]] = {}
        self._handlers = {
            "ping": self._handle_ping,
            "produce": self._handle_produce,
            "produce_batch": self._handle_produce_batch,
            "fetch": self._handle_fetch,
            "commit": self._handle_commit,
            "committed": self._handle_committed,
            "reset_group": self._handle_reset_group,
            "create_topic": self._handle_create_topic,
            "ensure_topic": self._handle_ensure_topic,
            "list_topics": self._handle_list_topics,
            "partitions": self._handle_partitions,
            "offsets": self._handle_offsets,
            "end_offsets": self._handle_end_offsets,
            "heartbeat": self._handle_heartbeat,
            "cluster": self._handle_cluster,
            "transport": self._handle_transport,
            "lease": self._handle_lease,
            "release": self._handle_release,
        }

    @property
    def broker(self) -> Broker:
        return self._broker

    @property
    def transport(self) -> ServerTransport | ShmServerPlane:
        return self._transport

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port); valid after :meth:`start`."""
        if self._listener is None:
            raise RuntimeError("server is not started")
        return self._listener.getsockname()[:2]

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Bind, start the event loop, and return the bound address."""
        if self._listener is not None:
            raise RuntimeError("server already started")
        self._listener = socket.create_server(
            (self._host, self._port), reuse_port=False
        )
        self._listener.setblocking(False)
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ, "accept")
        self._selector.register(self._wake_r, selectors.EVENT_READ, "wake")
        self._loop_thread = threading.Thread(
            target=self._run_loop, name="broker-server-loop", daemon=True
        )
        self._loop_thread.start()
        return self.address

    def stop(self, timeout: float = 5.0) -> bool:
        """Drain write queues, then shut down the loop.

        Connections with queued replies are flushed until ``timeout``
        seconds elapse; everything else closes immediately. Returns
        ``True`` when the deadline was hit with bytes still queued (some
        replies were dropped), ``False`` on a clean drain.
        """
        if self._loop_thread is None:
            self._transport.close()
            return False
        self._drain_deadline = time.monotonic() + max(0.0, timeout)
        self._stopping.set()
        self._wake()
        self._loop_thread.join(timeout=timeout + 1.0)
        self._transport.close()
        return self._deadline_hit

    def __enter__(self) -> "BrokerServer":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- in-process attachment ----------------------------------------------
    # The broker-shaped surface a pub/sub connector binds to, for code that
    # lives in the server's process (the dist coordinator's terminal
    # stage): same records, no socket. The five PartitionLogs calls make
    # the server the place its own consumers read the logs from.

    def ensure_topic(
        self, name: str, partitions: int = 1, retention: int | None = None
    ) -> int:
        return self._broker.ensure_topic(name, partitions, retention).num_partitions

    def partitions(self, topic: str) -> int:
        return self._broker.partitions(topic)

    def offsets(self, topic: str, partition: int) -> tuple[int, int]:
        return self._broker.offsets(topic, partition)

    def fetch(
        self, topic: str, partition: int, offset: int, max_records: int, timeout: float
    ) -> list[Message]:
        """The stored records, in place: no encode, no decode, no fetch thread.

        Values the transport stored as internal refs (shm slab refs) come
        back as payloads, in a shallow copy of the stored record.
        """
        out = []
        for message in self._broker.fetch(
            topic, partition, offset, max_records, timeout
        ):
            value = self._transport.resolve(message.value)
            if value is not message.value:
                message = dataclasses.replace(message, value=value)
            out.append(message)
        return out

    def commit(self, group: str, topic: str, partition: int, offset: int) -> None:
        self._broker.commit(group, topic, partition, offset)

    def committed(self, group: str, topic: str, partition: int) -> int | None:
        return self._broker.committed(group, topic, partition)

    def producer(self) -> Producer:
        return self._broker.producer()

    def consumer(
        self,
        group: str,
        topics: list[str] | None = None,
        auto_offset_reset: str = "earliest",
        auto_commit: bool = True,
    ) -> Consumer:
        """A consumer reading the served broker's logs in place."""
        return Consumer(self, group, topics, auto_offset_reset, auto_commit)

    # -- worker registry (read by the dist coordinator) --------------------

    def workers(self) -> dict[str, dict[str, Any]]:
        """Latest heartbeat per worker: info, metrics, seconds since seen."""
        now = time.monotonic()
        with self._lock:
            return {
                name: {
                    "info": beat["info"],
                    "metrics": beat["metrics"],
                    "age_s": now - beat["last_seen"],
                }
                for name, beat in self._heartbeats.items()
            }

    # -- event loop ----------------------------------------------------------

    def _wake(self) -> None:
        if self._wake_w is None:
            return
        try:
            self._wake_w.send(b"\x00")
        except OSError:  # pragma: no cover - loop already gone
            pass

    def _run_loop(self) -> None:
        assert self._selector is not None
        try:
            while True:
                if self._stopping.is_set() and self._shutdown_step():
                    return
                events = self._selector.select(timeout=0.2)
                self._drain_pending()
                for key, mask in events:
                    if key.data == "accept":
                        self._accept()
                    elif key.data == "wake":
                        try:
                            while self._wake_r.recv(4096):  # type: ignore[union-attr]
                                pass
                        except (BlockingIOError, OSError):
                            pass
                        self._drain_pending()
                    else:
                        conn: _Conn = key.data
                        if mask & selectors.EVENT_WRITE:
                            self._flush(conn)
                        if mask & selectors.EVENT_READ and conn.sock in self._conns:
                            self._read(conn)
        except Exception:  # pragma: no cover - loop must never die silently
            logger.exception("broker server event loop crashed")
        finally:
            self._teardown()

    def _shutdown_step(self) -> bool:
        """One drain iteration while stopping; True when the loop may exit."""
        if self._listener is not None:
            try:
                self._selector.unregister(self._listener)  # type: ignore[union-attr]
            except (KeyError, ValueError):
                pass
            try:
                self._listener.close()
            except OSError:  # pragma: no cover
                pass
        self._drain_pending()
        # close everything with nothing left to say; keep flushing the rest
        for conn in list(self._conns.values()):
            if conn.out:
                self._want_write(conn, reading=False)
            else:
                self._close_conn(conn)
        if not self._conns:
            return True
        deadline = self._drain_deadline or 0.0
        if time.monotonic() >= deadline:
            self._deadline_hit = True
            logger.warning(
                "stop() deadline hit with %d connection(s) undrained",
                len(self._conns),
            )
            return True
        return False

    def _teardown(self) -> None:
        for conn in list(self._conns.values()):
            self._close_conn(conn)
        for sock in (self._wake_r, self._wake_w, self._listener):
            if sock is not None:
                try:
                    sock.close()
                except OSError:  # pragma: no cover
                    pass
        if self._selector is not None:
            self._selector.close()

    def _accept(self) -> None:
        assert self._listener is not None
        try:
            sock, _addr = self._listener.accept()
        except (BlockingIOError, OSError):
            return
        sock.setblocking(False)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - not a TCP socket
            pass
        conn = _Conn(sock, next(self._tokens), self._max_frame)
        self._conns[sock] = conn
        self._selector.register(sock, selectors.EVENT_READ, conn)  # type: ignore[union-attr]

    def _close_conn(self, conn: _Conn) -> None:
        if conn.sock not in self._conns:
            return
        del self._conns[conn.sock]
        try:
            self._selector.unregister(conn.sock)  # type: ignore[union-attr]
        except (KeyError, ValueError):  # pragma: no cover
            pass
        try:
            conn.sock.close()
        except OSError:  # pragma: no cover
            pass
        self._transport.on_disconnect(conn.token)

    def _want_write(self, conn: _Conn, reading: bool = True) -> None:
        if conn.sock not in self._conns:
            return
        events = selectors.EVENT_READ if reading and not self._stopping.is_set() else 0
        if conn.out:
            events |= selectors.EVENT_WRITE
        if events == 0:
            events = selectors.EVENT_READ
        self._selector.modify(conn.sock, events, conn)  # type: ignore[union-attr]

    # -- reads ---------------------------------------------------------------

    def _read(self, conn: _Conn) -> None:
        try:
            data = conn.sock.recv(_RECV_CHUNK)
        except BlockingIOError:
            return
        except OSError:
            self._close_conn(conn)
            return
        if not data:
            self._close_conn(conn)
            return
        conn.decoder.feed(data)
        try:
            for frame in conn.decoder.frames():
                self._handle_frame(conn, frame)
                if conn.close_after_flush or conn.sock not in self._conns:
                    break
        except ProtocolError as exc:
            self._enqueue(conn, Frame(TYPE_ERROR, 0, _error_meta(exc)))
            conn.close_after_flush = True
        self._after_enqueue(conn)

    def _handle_frame(self, conn: _Conn, frame: Frame) -> None:
        if frame.type != TYPE_REQUEST:
            self._enqueue(
                conn,
                Frame(
                    TYPE_ERROR,
                    frame.corr_id,
                    _error_meta(ProtocolError("expected a request frame")),
                ),
            )
            conn.close_after_flush = True
            return
        try:
            spec, request = parse_request(frame.meta)
        except Exception as exc:
            self._enqueue(conn, Frame(TYPE_ERROR, frame.corr_id, _error_meta(exc)))
            return
        try:
            if (
                spec.may_block is not None
                and spec.may_block(request)
                and self._fetch_must_wait(request)
            ):
                threading.Thread(
                    target=self._run_blocking,
                    args=(conn, frame, spec.name, request),
                    name=f"broker-server-{spec.name}",
                    daemon=True,
                ).start()
                return
            meta, blobs = self._handlers[spec.name](conn, request, frame.blobs)
            reply = Frame(TYPE_RESPONSE, frame.corr_id, meta, tuple(blobs))
        except Exception as exc:  # typed error travels to the client
            reply = Frame(TYPE_ERROR, frame.corr_id, _error_meta(exc))
        self._enqueue(conn, reply)

    def _fetch_must_wait(self, req: Any) -> bool:
        """True when a blocking fetch has nothing to return yet.

        Only then is it worth a thread: with records already in the log the
        loop answers it like any other request.
        """
        log = self._broker.topic(req.topic).log(int(req.partition))
        return int(req.offset) >= log.end_offset

    def _run_blocking(
        self, conn: _Conn, frame: Frame, op: str, request: Any
    ) -> None:
        """Execute a may-block op off the loop, then hand the reply back."""
        try:
            meta, blobs = self._handlers[op](conn, request, frame.blobs)
            reply = Frame(TYPE_RESPONSE, frame.corr_id, meta, tuple(blobs))
        except Exception as exc:
            reply = Frame(TYPE_ERROR, frame.corr_id, _error_meta(exc))
        with self._lock:
            self._pending.append((conn, reply))
        self._wake()

    def _drain_pending(self) -> None:
        while True:
            with self._lock:
                if not self._pending:
                    return
                conn, reply = self._pending.popleft()
            if conn.sock in self._conns:
                self._enqueue(conn, reply)
                self._after_enqueue(conn)

    # -- writes --------------------------------------------------------------

    def _enqueue(self, conn: _Conn, frame: Frame) -> None:
        conn.out.extend(frame_iovecs(frame))

    def _after_enqueue(self, conn: _Conn) -> None:
        """Flush optimistically; fall back to WRITE interest if blocked."""
        if conn.sock not in self._conns:
            return
        self._flush(conn)

    def _flush(self, conn: _Conn) -> None:
        if conn.sock not in self._conns:
            return
        try:
            while conn.out:
                window: list[Any] = [memoryview(conn.out[0])[conn.off :]]
                total = len(window[0])
                for buf in itertools.islice(conn.out, 1, _IOV_BATCH):
                    window.append(buf)
                    total += len(buf)
                if hasattr(conn.sock, "sendmsg"):
                    sent = conn.sock.sendmsg(window)
                else:  # pragma: no cover - non-POSIX fallback
                    sent = conn.sock.send(b"".join(window))
                partial = sent < total
                while conn.out:
                    rem0 = len(conn.out[0]) - conn.off
                    if sent >= rem0:
                        sent -= rem0
                        conn.out.popleft()
                        conn.off = 0
                    else:
                        conn.off += sent
                        break
                if partial:  # socket buffer full: wait for writability
                    break
        except BlockingIOError:
            pass
        except OSError:
            self._close_conn(conn)
            return
        if not conn.out and conn.close_after_flush:
            self._close_conn(conn)
            return
        self._want_write(conn)

    # -- operations ----------------------------------------------------------

    def _handle_ping(self, conn: _Conn, req: Any, blobs: tuple) -> tuple[dict, list]:
        return response_meta(PingResponse()), []

    def _append_one(
        self,
        topic: Any,
        key: Any,
        value: Any,
        timestamp: Any,
        headers: Any,
        partition: Any,
    ) -> tuple[int, int]:
        return topic.append(key, value, timestamp, headers, partition)

    def _resolve_topic(self, name: str, auto_create: bool, partitions: int) -> Any:
        if auto_create:
            return self._broker.ensure_topic(name, int(partitions))
        return self._broker.topic(name)

    def _handle_produce(
        self, conn: _Conn, req: Any, blobs: tuple
    ) -> tuple[dict, list]:
        value = decode_wire(blobs[0], context=self._ctx)
        topic = self._resolve_topic(req.topic, req.auto_create, req.partitions)
        partition, offset = self._append_one(
            topic, req.key, value, req.timestamp, req.headers, req.partition
        )
        return response_meta(ProduceResponse(partition, offset)), []

    def _handle_produce_batch(
        self, conn: _Conn, req: Any, blobs: tuple
    ) -> tuple[dict, list]:
        if len(req.entries) != len(blobs):
            raise ProtocolError(
                f"produce_batch carries {len(blobs)} blob(s) for "
                f"{len(req.entries)} entries"
            )
        topic = self._resolve_topic(req.topic, req.auto_create, req.partitions)
        results = []
        for entry, blob in zip(req.entries, blobs):
            value = decode_wire(blob, context=self._ctx)
            partition, offset = self._append_one(
                topic,
                entry.get("key"),
                value,
                entry.get("timestamp"),
                entry.get("headers"),
                entry.get("partition"),
            )
            results.append([partition, offset])
        return response_meta(ProduceBatchResponse(results)), []

    def _handle_fetch(self, conn: _Conn, req: Any, blobs: tuple) -> tuple[dict, list]:
        log = self._broker.topic(req.topic).log(int(req.partition))
        offset = int(req.offset)
        max_records = int(req.max_records)
        timeout = float(req.timeout)
        if timeout > 0:
            records = log.read_blocking(
                offset, max_records, min(timeout, MAX_FETCH_BLOCK_S)
            )
        else:
            records = log.read(offset, max_records)
        out_records = []
        out_blobs = []
        budget = FETCH_REPLY_SOFT_BYTES
        for record in records:
            blob = encode_wire(record.value, context=self._ctx)
            if out_blobs and budget - len(blob) < 0:
                break  # reply full; the client's next fetch resumes here
            budget -= len(blob)
            out_records.append(
                {
                    "offset": record.offset,
                    "key": record.key,
                    "timestamp": record.timestamp,
                    "headers": record.headers,
                }
            )
            out_blobs.append(blob)
        return response_meta(FetchResponse(out_records)), out_blobs

    def _handle_commit(self, conn: _Conn, req: Any, blobs: tuple) -> tuple[dict, list]:
        offset = int(req.offset)
        if offset < 0:
            raise InvalidOffsetError(f"cannot commit negative offset {offset}")
        self._broker.commit(req.group, req.topic, int(req.partition), offset)
        return {}, []

    def _handle_committed(
        self, conn: _Conn, req: Any, blobs: tuple
    ) -> tuple[dict, list]:
        offset = self._broker.committed(req.group, req.topic, int(req.partition))
        return response_meta(CommittedResponse(offset)), []

    def _handle_reset_group(
        self, conn: _Conn, req: Any, blobs: tuple
    ) -> tuple[dict, list]:
        self._broker.reset_group(req.group, req.topics)
        return {}, []

    def _handle_create_topic(
        self, conn: _Conn, req: Any, blobs: tuple
    ) -> tuple[dict, list]:
        topic = self._broker.create_topic(
            req.topic, int(req.partitions), req.retention
        )
        return response_meta(TopicResponse(topic.num_partitions)), []

    def _handle_ensure_topic(
        self, conn: _Conn, req: Any, blobs: tuple
    ) -> tuple[dict, list]:
        topic = self._broker.ensure_topic(
            req.topic, int(req.partitions), req.retention
        )
        return response_meta(TopicResponse(topic.num_partitions)), []

    def _handle_list_topics(
        self, conn: _Conn, req: Any, blobs: tuple
    ) -> tuple[dict, list]:
        return response_meta(ListTopicsResponse(self._broker.topics())), []

    def _handle_partitions(
        self, conn: _Conn, req: Any, blobs: tuple
    ) -> tuple[dict, list]:
        return response_meta(TopicResponse(self._broker.partitions(req.topic))), []

    def _handle_offsets(self, conn: _Conn, req: Any, blobs: tuple) -> tuple[dict, list]:
        start, end = self._broker.offsets(req.topic, int(req.partition))
        return response_meta(OffsetsResponse(start, end)), []

    def _handle_end_offsets(
        self, conn: _Conn, req: Any, blobs: tuple
    ) -> tuple[dict, list]:
        topic = self._broker.topic(req.topic)
        offsets = {str(p): end for p, end in topic.end_offsets().items()}
        return response_meta(EndOffsetsResponse(offsets)), []

    def _handle_heartbeat(
        self, conn: _Conn, req: Any, blobs: tuple
    ) -> tuple[dict, list]:
        with self._lock:
            self._heartbeats[req.worker] = {
                "info": req.info,
                "metrics": req.metrics,
                "last_seen": time.monotonic(),
            }
        return {}, []

    def _handle_cluster(self, conn: _Conn, req: Any, blobs: tuple) -> tuple[dict, list]:
        workers = self.workers()
        if not req.include_metrics:
            workers = {
                name: {"info": w["info"], "age_s": w["age_s"]}
                for name, w in workers.items()
            }
        return response_meta(ClusterResponse(workers)), []

    def _handle_transport(
        self, conn: _Conn, req: Any, blobs: tuple
    ) -> tuple[dict, list]:
        return response_meta(TransportResponse(self._transport.describe())), []

    def _handle_lease(self, conn: _Conn, req: Any, blobs: tuple) -> tuple[dict, list]:
        pairs = self._transport.lease(conn.token, int(req.count))
        return response_meta(LeaseResponse([list(p) for p in pairs])), []

    def _handle_release(self, conn: _Conn, req: Any, blobs: tuple) -> tuple[dict, list]:
        pairs = [(int(s), int(g)) for s, g in req.slots]
        released = self._transport.release(conn.token, pairs)
        return response_meta(ReleaseResponse(released)), []


def _error_meta(exc: Exception) -> dict:
    return {"error": type(exc).__name__, "message": str(exc)}
