"""Append-only partition log with offset-based reads and retention.

Each partition is an ordered sequence of :class:`Message` records addressed
by monotonically increasing offsets. Readers poll from an offset; a
condition variable lets blocking readers wake as soon as new records land.
Retention — a record count, or an explicit :meth:`PartitionLog.trim` below
what every reader has committed — drops the head of the log (oldest
records) while preserving offset numbering, as Kafka does.
"""

from __future__ import annotations

import threading
import time
from typing import Any

from .errors import InvalidOffsetError
from .message import Message


class PartitionLog:
    """Thread-safe append-only log for one (topic, partition)."""

    def __init__(self, topic: str, partition: int, retention: int | None = None) -> None:
        self._topic = topic
        self._partition = partition
        self._retention = retention
        self._records: list[Message] = []
        self._base_offset = 0  # offset of _records[0]
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)

    @property
    def topic(self) -> str:
        return self._topic

    @property
    def partition(self) -> int:
        return self._partition

    @property
    def start_offset(self) -> int:
        """Offset of the oldest retained record."""
        with self._lock:
            return self._base_offset

    @property
    def end_offset(self) -> int:
        """Offset that the *next* appended record will receive."""
        with self._lock:
            return self._base_offset + len(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def append(
        self,
        key: str | None,
        value: Any,
        timestamp: float | None = None,
        headers: dict[str, Any] | None = None,
    ) -> int:
        """Append one record and return its assigned offset."""
        if timestamp is None:
            timestamp = time.time()
        with self._not_empty:
            offset = self._base_offset + len(self._records)
            self._records.append(
                Message(
                    topic=self._topic,
                    partition=self._partition,
                    offset=offset,
                    key=key,
                    value=value,
                    timestamp=timestamp,
                    headers=dict(headers or {}),
                )
            )
            if self._retention is not None and len(self._records) > self._retention:
                excess = len(self._records) - self._retention
                del self._records[:excess]
                self._base_offset += excess
            self._not_empty.notify_all()
            return offset

    def trim(self, before: int) -> int:
        """Drop every retained record below offset ``before``; how many went.

        The head moves as under retention, offsets keep their numbering,
        and a reader positioned below the new start is answered with
        :class:`InvalidOffsetError`. Offsets at or past the end drop all.
        """
        with self._lock:
            excess = min(before - self._base_offset, len(self._records))
            if excess <= 0:
                return 0
            del self._records[:excess]
            self._base_offset += excess
            return excess

    def read(self, offset: int, max_records: int = 1024) -> list[Message]:
        """Return up to ``max_records`` records starting at ``offset``.

        An offset before the retained range raises
        :class:`InvalidOffsetError`; an offset at or past the end returns an
        empty list (nothing new yet).
        """
        with self._lock:
            return self._read_locked(offset, max_records)

    def _read_locked(self, offset: int, max_records: int) -> list[Message]:
        if offset < self._base_offset:
            raise InvalidOffsetError(
                f"offset {offset} below retained start {self._base_offset} "
                f"for {self._topic}/{self._partition}"
            )
        index = offset - self._base_offset
        return self._records[index : index + max_records]

    def read_blocking(
        self, offset: int, max_records: int = 1024, timeout: float | None = None
    ) -> list[Message]:
        """Like :meth:`read` but waits up to ``timeout`` for new records."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._not_empty:
            while True:
                records = self._read_locked(offset, max_records)
                if records:
                    return records
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return []
                self._not_empty.wait(remaining)
