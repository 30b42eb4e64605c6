"""Consumer client with consumer-group semantics.

A :class:`Consumer` subscribes to topics, polls records partition by
partition, and tracks per-partition positions. Consumers sharing a group id
share committed offsets through the broker, so a restarted consumer resumes
where its group left off. :class:`ConsumerGroup` splits a topic's
partitions across several consumers (static range assignment), giving the
scale-out path the paper gets from Kafka consumer groups.

There is one consumer wherever the partition logs live. How a group member
resolves its start position, tracks it, commits it and waits for data is
decided here; *where* the logs are is the five calls of
:class:`PartitionLogs` — implemented by the in-process
:class:`~repro.pubsub.broker.Broker`, by
:class:`~repro.net.server.BrokerServer` (its own broker, read in place) and,
over a private connection, by :mod:`repro.net.client`.
"""

from __future__ import annotations

from typing import Callable, Iterator, Protocol

from .errors import InvalidOffsetError
from .message import Message


class PartitionLogs(Protocol):
    """Where a consumer's partition logs live: the whole seam, five calls."""

    def partitions(self, topic: str) -> int:
        """Partition count of an existing topic."""

    def offsets(self, topic: str, partition: int) -> tuple[int, int]:
        """``(start, end)``: oldest retained offset, next offset to be written."""

    def fetch(
        self, topic: str, partition: int, offset: int, max_records: int, timeout: float
    ) -> list[Message]:
        """Up to ``max_records`` records from ``offset`` on.

        Empty when nothing is there yet, after waiting up to ``timeout``
        seconds for it; :class:`InvalidOffsetError` when ``offset`` lies
        below the retained start.
        """

    def commit(self, group: str, topic: str, partition: int, offset: int) -> None:
        """Durably record a group's next-read offset."""

    def committed(self, group: str, topic: str, partition: int) -> int | None:
        """A group's committed next-read offset, or None."""


class Consumer:
    """Single consumer over one or more topics.

    ``auto_offset_reset`` selects the start position when the group has no
    committed offset: ``"earliest"`` replays the full retained log (used to
    reprocess historic printing jobs), ``"latest"`` starts at the live edge.
    ``on_close`` releases what was opened for this consumer alone (a remote
    consumer's private connection); :meth:`close` calls it once.
    """

    def __init__(
        self,
        broker: PartitionLogs,
        group: str,
        topics: list[str] | None = None,
        auto_offset_reset: str = "earliest",
        auto_commit: bool = True,
        on_close: Callable[[], None] | None = None,
    ) -> None:
        if auto_offset_reset not in ("earliest", "latest"):
            raise ValueError("auto_offset_reset must be 'earliest' or 'latest'")
        self._logs = broker
        self._group = group
        self._auto_offset_reset = auto_offset_reset
        self._auto_commit = auto_commit
        self._on_close = on_close
        # (topic, partition) -> next offset to read
        self._positions: dict[tuple[str, int], int] = {}
        self._assignment: list[tuple[str, int]] = []
        if topics:
            self.subscribe(topics)

    @property
    def group(self) -> str:
        return self._group

    @property
    def assignment(self) -> list[tuple[str, int]]:
        return list(self._assignment)

    def subscribe(self, topics: list[str]) -> None:
        """Subscribe to all partitions of the given topics."""
        self.assign(
            [
                (name, partition)
                for name in topics
                for partition in range(self._logs.partitions(name))
            ]
        )

    def assign(self, partitions: list[tuple[str, int]]) -> None:
        """Manually assign specific (topic, partition) pairs."""
        self._assignment = [(topic, int(partition)) for topic, partition in partitions]
        self._resolve_positions()

    def _resolve_positions(self) -> None:
        for name, partition in self._assignment:
            if (name, partition) in self._positions:
                continue
            position = self._logs.committed(self._group, name, partition)
            if position is None:
                start, end = self._logs.offsets(name, partition)
                position = start if self._auto_offset_reset == "earliest" else end
            self._positions[(name, partition)] = position

    def seek(self, topic: str, partition: int, offset: int) -> None:
        """Set the next read position for one partition."""
        if (topic, partition) not in self._assignment:
            raise InvalidOffsetError(f"{topic}/{partition} is not assigned")
        self._positions[(topic, partition)] = offset

    def position(self, topic: str, partition: int) -> int:
        """Next offset this consumer will read for the partition."""
        return self._positions[(topic, partition)]

    def _fetch(
        self, topic: str, partition: int, max_records: int, timeout: float
    ) -> list[Message]:
        key = (topic, partition)
        try:
            records = self._logs.fetch(
                topic, partition, self._positions[key], max_records, timeout
            )
        except InvalidOffsetError:
            # Retention trimmed past our position: skip to the oldest
            # retained record, as Kafka's 'earliest' reset would.
            self._positions[key], _end = self._logs.offsets(topic, partition)
            records = self._logs.fetch(
                topic, partition, self._positions[key], max_records, timeout
            )
        if records:
            self._positions[key] = records[-1].offset + 1
        return records

    def poll(self, max_records: int = 1024, timeout: float = 0.0) -> list[Message]:
        """Fetch available records across the assignment.

        Every assigned partition is read without waiting, except that the
        first one is read last and — if nothing has arrived by then and a
        ``timeout`` was given — waited on (sufficient for the
        single-partition connector topologies STRATA deploys). That fetch
        doubling as the wait is what keeps a poll over a socket at one
        round trip per partition.
        """
        out: list[Message] = []
        budget = max_records
        for name, partition in self._assignment[1:]:
            if budget <= 0:
                break
            records = self._fetch(name, partition, budget, 0.0)
            out.extend(records)
            budget -= len(records)
        if budget > 0 and self._assignment:
            name, partition = self._assignment[0]
            out.extend(self._fetch(name, partition, budget, 0.0 if out else timeout))
        if out and self._auto_commit:
            self.commit()
        return out

    def commit(
        self,
        topic: str | None = None,
        partition: int | None = None,
        offset: int | None = None,
    ) -> None:
        """Commit offsets to the broker.

        Without arguments, commits the current position of every assigned
        partition (the legacy whole-assignment behavior). With ``topic`` and
        ``partition``, commits just that partition — at ``offset`` when
        given, else at its current position. Per-partition commits let a
        checkpoint coordinator pin exactly the offsets captured at a
        barrier, independent of how far the consumer has read since.
        """
        if topic is None:
            if partition is not None or offset is not None:
                raise ValueError("partition/offset require a topic")
            for (name, part), position in self._positions.items():
                if (name, part) in self._assignment:
                    self._logs.commit(self._group, name, part, position)
            return
        if partition is None:
            raise ValueError("per-partition commit requires a partition")
        if offset is None:
            if (topic, partition) not in self._positions:
                raise InvalidOffsetError(f"{topic}/{partition} has no position")
            offset = self._positions[(topic, partition)]
        if offset < 0:
            raise InvalidOffsetError(f"cannot commit negative offset {offset}")
        self._logs.commit(self._group, topic, partition, offset)

    def committed(self, topic: str, partition: int) -> int | None:
        """Offset last committed for this group+partition (None if never)."""
        return self._logs.committed(self._group, topic, partition)

    def close(self) -> None:
        """Release what this consumer alone holds; its group's offsets stay."""
        on_close, self._on_close = self._on_close, None
        if on_close is not None:
            on_close()

    def __iter__(self) -> Iterator[Message]:
        """Drain everything currently available (non-blocking)."""
        while True:
            batch = self.poll()
            if not batch:
                return
            yield from batch


class ConsumerGroup:
    """Static range assignment of a topic's partitions over N members."""

    def __init__(
        self, broker: PartitionLogs, group: str, topic: str, members: int
    ) -> None:
        if members < 1:
            raise ValueError("a consumer group needs at least one member")
        partitions = list(range(broker.partitions(topic)))
        self._consumers: list[Consumer] = []
        for member in range(members):
            share = [
                (topic, p) for i, p in enumerate(partitions) if i % members == member
            ]
            consumer = Consumer(broker, group)
            consumer.assign(share)
            self._consumers.append(consumer)

    @property
    def members(self) -> list[Consumer]:
        return list(self._consumers)
