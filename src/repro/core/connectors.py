"""Pub/sub connectors between STRATA modules.

Figure 2 separates the Raw Data Collector, Event Monitor, and Event
Aggregator with publish/subscribe connectors so detection methods can be
"continuously deployed, run, and decommissioned" independently. These
adapters bridge SPE streams over broker topics: a :class:`PubSubWriterSink`
publishes every tuple of a stream to a topic (plus an end-of-stream
sentinel per partition when the query side closes), and a
:class:`PubSubReaderSource` replays a topic into another query until every
partition has delivered its sentinel.

A record's value is one tuple or — when a batching writer was handed
several same-key, same-schema tuples in a row — one
:class:`~repro.spe.columnar.ColumnarBlock` holding the run. The reader
turns a block back into its rows, so what crosses the connector is the
same tuple sequence either way; only the number of records differs.

The ``broker`` argument is anything broker-shaped — ``ensure_topic()`` plus
the ``producer()``/``consumer()`` factories: an in-process
:class:`~repro.pubsub.broker.Broker`, a
:class:`~repro.net.client.BrokerClient` for a broker on another machine, or
the :class:`~repro.net.server.BrokerServer` itself for code in the serving
process. The connectors close the clients they open, so the same connector
graph runs in one process or across machines unchanged.

Connectors require the threaded engine (a reader blocks waiting for
records); the direct fast path wires modules with plain streams instead.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Iterator

from ..recovery.dedup import result_identity
from ..spe.columnar import ColumnarBlock
from ..spe.sink import Sink
from ..spe.source import Source
from ..spe.stream import TupleBatch, flatten_runs
from ..spe.tuples import StreamTuple

#: value published when the writing query side has no more tuples
EOS_SENTINEL = "__strata_topic_eos__"

#: how long a reader's poll blocks when no partition has a record ready
POLL_TIMEOUT = 0.05

_uid = itertools.count()


def topic_for_stream(stream_name: str) -> str:
    """Naming convention for connector topics."""
    return f"strata.{stream_name}"


def _record_key(t: StreamTuple) -> str:
    return f"{t.job}/{t.layer}"


def _block_key(t: StreamTuple) -> tuple:
    """Tuples agreeing on this, in a row, can share one block record."""
    return (t.job, t.layer, t.payload.keys())


class PubSubWriterSink(Sink):
    """Terminates a query branch by publishing its tuples to a topic.

    ``batch_size`` is the most tuples one produce frame may carry. Above 1
    (the distributed runtime turns this on via
    ``DistConfig.produce_batch``) tuples are buffered
    until the frame is full or :meth:`flush` is called — the scheduler
    calls it whenever the sink's input has nothing more ready, so a
    partial frame never waits for the next tuple. Within a frame,
    consecutive tuples sharing a record key and a payload schema travel as
    one :class:`~repro.spe.columnar.ColumnarBlock` record; a tuple with no
    such neighbour stays a tuple record. Order is preserved exactly.
    The buffer is always flushed before the EOS broadcast and before a
    rebind, so batching never reorders a record after its sentinel.

    The sink's checkpoint state is its acked end offset per partition (the
    offset after the last record the broker confirmed): taken at a barrier,
    after the flush, it is the stage's committed output position, below
    which a restarted incarnation never publishes again.
    """

    def __init__(
        self, name: str, broker: Any, topic: str, batch_size: int = 1
    ) -> None:
        super().__init__(name)
        self._producer = broker.producer()
        self._topic = topic
        self._batch_size = max(1, int(batch_size))
        self._buffer: list[StreamTuple] = []
        self._acked: dict[int, int] = {}  # partition -> offset after the last ack

    @property
    def topic(self) -> str:
        return self._topic

    @property
    def batch_size(self) -> int:
        return self._batch_size

    def rebind(self, broker: Any, batch_size: int | None = None) -> None:
        """Point this sink at a different broker (same topic).

        The distributed runtime uses this after forking a worker: the
        inherited producer references the coordinator's in-process broker,
        which is unreachable from the child — rebinding swaps in a network
        client without touching the rest of the node graph. The producer
        being replaced is closed.
        """
        self.flush()
        self._producer.close()
        if batch_size is not None:
            self._batch_size = max(1, int(batch_size))
        self._producer = broker.producer()

    def flush(self) -> None:
        """Publish whatever is buffered as one produce frame."""
        if not self._buffer:
            return
        records = []
        for _, group in itertools.groupby(self._buffer, _block_key):
            run = list(group)
            key, tau = _record_key(run[0]), run[0].tau
            if len(run) > 1:
                run = [ColumnarBlock.from_tuples(run)]
            records.extend({"value": v, "key": key, "timestamp": tau} for v in run)
        self._buffer.clear()
        for partition, offset in self._producer.send_batch(self._topic, records):
            self._acked[partition] = offset + 1

    def consume(self, t: StreamTuple) -> None:
        if self._batch_size > 1:
            self._buffer.append(t)
            if len(self._buffer) >= self._batch_size:
                self.flush()
            return
        partition, offset = self._producer.send(
            self._topic, t, key=_record_key(t), timestamp=t.tau
        )
        self._acked[partition] = offset + 1

    def snapshot_state(self) -> dict[str, object]:
        """``{"acked": [[partition, end offset], ...]}``: what the broker holds."""
        return {"acked": [[p, offset] for p, offset in sorted(self._acked.items())]}

    def restore_state(self, state: dict[str, object]) -> None:
        self._acked = {int(p): int(offset) for p, offset in state["acked"]}

    def on_close(self) -> None:
        """Publish one end-of-stream sentinel to *every* partition.

        A keyed send would land the sentinel in a single partition, and a
        reader consuming a multi-partition topic would hang waiting on the
        others — so the sentinel is broadcast per partition explicitly.
        Buffered records flush first: a sentinel must never overtake data.
        The producer is closed after it: nothing follows a sentinel, and a
        remote producer holds a socket and unused slab leases until then.
        """
        self.flush()
        for partition in range(self._producer.partitions_of(self._topic)):
            self._producer.send(self._topic, EOS_SENTINEL, partition=partition)
        self._producer.close()
        super().on_close()


class PubSubReaderSource(Source):
    """Feeds a query from a topic until every partition reaches EOS.

    ``dedup=True`` suppresses tuples whose content key
    ``(tau, job, layer, specimen, portion)`` was already delivered — the
    at-least-once replay filter the distributed runtime relies on when a
    restarted upstream worker republishes what it produced after its last
    commit. The filter works per row, not per record: a replay may frame
    the same tuples into blocks with different boundaries. A key is kept
    until :meth:`forget_below` reports its record below the producer's
    committed output offset, which no restart republishes.

    Iterating yields tuples. :meth:`runs` yields the same sequence but
    hands a multi-row record over whole, as a
    :class:`~repro.spe.stream.TupleBatch` — the scheduler ships it down
    the edge as one entry, so the run its producer framed survives the
    connector without a linger timer on this side.
    """

    def __init__(
        self,
        name: str,
        broker: Any,
        topic: str,
        group: str | None = None,
        auto_commit: bool = True,
        dedup: bool = False,
    ) -> None:
        super().__init__(name)
        self._broker = broker
        self._topic = topic
        self._group = group or f"strata-reader-{next(_uid)}"
        self._auto_commit = auto_commit
        self._dedup = dedup
        self._duplicates = 0
        self._seen: set[tuple] = set()
        # (topic, partition) -> (offset, keys first seen in that record), in
        # read order; forget_below() hands over the horizon, runs() applies it
        self._seen_at: dict[tuple[str, int], deque] = {}
        self._horizon: dict[tuple[str, int], int] = {}
        self._consumer = None
        # (topic, partition) -> offset after the last record handed over.
        # The consumer's own position runs ahead of it by whatever one poll
        # fetched and this source has not yielded yet.
        self._delivered: dict[tuple[str, int], int] = {}
        self._connect()

    def _connect(self) -> None:
        self._broker.ensure_topic(self._topic)
        self._delivered.clear()
        self._seen.clear()
        self._seen_at.clear()
        self._consumer = self._broker.consumer(
            self._group,
            [self._topic],
            auto_offset_reset="earliest",
            auto_commit=self._auto_commit,
        )

    @property
    def consumer(self):
        return self._consumer

    def close(self) -> None:
        """Close the consumer (a remote one holds a socket).

        Not done at end of stream: a checkpoint taken as the stream ends
        still commits offsets through it. Whoever ran the query calls this.
        """
        self._consumer.close()

    @property
    def topic(self) -> str:
        return self._topic

    @property
    def group(self) -> str:
        return self._group

    @property
    def duplicates_suppressed(self) -> int:
        """Replayed tuples dropped by the dedup filter so far."""
        return self._duplicates

    @property
    def dedup_keys(self) -> int:
        """Content keys the dedup filter holds now."""
        return len(self._seen)

    def forget_below(self, horizon: list[list]) -> None:
        """Let dedup drop keys whose record lies below its producer's commit.

        ``horizon`` holds ``[topic, partition, offset]`` triples, each the
        committed output offset of the stage writing that partition; other
        topics' entries are ignored. Thread-safe: the reading thread applies
        it at its next poll.
        """
        self._horizon = {
            (topic, int(partition)): int(offset)
            for topic, partition, offset in horizon
            if topic == self._topic
        }

    def rebind(
        self,
        broker: Any,
        auto_commit: bool | None = None,
        dedup: bool | None = None,
    ) -> None:
        """Reconnect to a different broker, keeping topic and group.

        Used by the distributed runtime after a fork (see
        :meth:`PubSubWriterSink.rebind`); ``auto_commit``/``dedup``
        override the stored settings when given. The consumer being
        replaced is closed.
        """
        self.close()
        self._broker = broker
        if auto_commit is not None:
            self._auto_commit = auto_commit
        if dedup is not None:
            self._dedup = dedup
        self._connect()

    def offsets(self) -> list[list]:
        """Replay positions as ``[topic, partition, next_offset]`` triples.

        A position names the first record *not yet handed over*, and always
        falls on a record boundary: a block's rows are delivered together.
        """
        return [
            [
                topic,
                partition,
                self._delivered.get(
                    (topic, partition), self._consumer.position(topic, partition)
                ),
            ]
            for topic, partition in self._consumer.assignment
        ]

    def seek(self, offsets: list[list]) -> None:
        """Rewind to positions previously captured by :meth:`offsets`."""
        for topic, partition, offset in offsets:
            self._consumer.seek(topic, int(partition), int(offset))
            self._delivered[(topic, int(partition))] = int(offset)

    def commit_offsets(self, offsets: list[list]) -> None:
        """Pin captured positions on the broker (per-partition commits).

        A reader that never commits its group (``auto_commit=False``, as
        the dist runtime runs every reader: a worker's epoch record is its
        one commit) pins nothing here either.
        """
        if not self._auto_commit:
            return
        for topic, partition, offset in offsets:
            self._consumer.commit(topic, int(partition), int(offset))

    def runs(self) -> Iterator[Any]:
        """Yield each record's tuples: one tuple, or a ``TupleBatch`` of rows."""
        pending = set(self._consumer.assignment)
        applied: dict[tuple[str, int], int] = {}
        while pending:
            if self._horizon is not applied:
                applied = self._horizon
                self._forget(applied)
            for message in self._consumer.poll(timeout=POLL_TIMEOUT):
                # Moves before the hand-over: a checkpoint barrier taken
                # while this generator rests at a yield below must not
                # replay the record just delivered.
                self._delivered[(message.topic, message.partition)] = (
                    message.offset + 1
                )
                value = message.value
                if type(value) is ColumnarBlock:
                    run = value.to_tuples()
                elif isinstance(value, StreamTuple):
                    run = [value]
                elif isinstance(value, str) and value == EOS_SENTINEL:
                    pending.discard((message.topic, message.partition))
                    continue
                else:
                    yield value
                    continue
                if self._dedup:
                    run = self._first_sights(message, run)
                # Do NOT restamp ingest_time: latency spans the connector
                # hop too (data was available when the writer received it).
                if len(run) > 1:
                    yield run
                elif run:
                    yield run[0]

    def _first_sights(self, message: Any, run: list[StreamTuple]) -> TupleBatch:
        """The rows of ``run`` not delivered before; remembers their keys."""
        fresh, keys = TupleBatch(), []
        for t in run:
            key = result_identity(t)
            if key in self._seen:
                self._duplicates += 1
                continue
            self._seen.add(key)
            keys.append(key)
            fresh.append(t)
        if keys:
            where = (message.topic, message.partition)
            self._seen_at.setdefault(where, deque()).append((message.offset, keys))
        return fresh

    def _forget(self, horizon: dict[tuple[str, int], int]) -> None:
        for where, below in horizon.items():
            sightings = self._seen_at.get(where)
            while sightings and sightings[0][0] < below:
                self._seen.difference_update(sightings.popleft()[1])

    def __iter__(self) -> Iterator[StreamTuple]:
        return flatten_runs(self.runs())
