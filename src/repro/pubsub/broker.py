"""In-process message broker (the Kafka substitute).

Owns topics and consumer-group offset state. Producers and consumers are
thin clients bound to one broker instance; everything runs in-process, but
the interaction model (topics, partitions, offsets, consumer groups,
commit/seek/replay) mirrors Kafka so STRATA's connector layer exercises the
same decoupling the paper's prototype gets from Kafka.
"""

from __future__ import annotations

import threading
from typing import Iterable

from .consumer import Consumer
from .errors import BrokerClosedError, TopicExistsError, UnknownTopicError
from .message import Message
from .producer import Producer
from .topic import Topic


class Broker:
    """Registry of topics plus durable consumer-group offsets."""

    def __init__(self) -> None:
        self._topics: dict[str, Topic] = {}
        # committed offsets: (group, topic, partition) -> next offset to read
        self._commits: dict[tuple[str, str, int], int] = {}
        self._lock = threading.RLock()
        self._closed = False

    def _check_open(self) -> None:
        if self._closed:
            raise BrokerClosedError("broker is closed")

    # -- topic management --------------------------------------------------

    def create_topic(
        self, name: str, partitions: int = 1, retention: int | None = None
    ) -> Topic:
        with self._lock:
            self._check_open()
            if name in self._topics:
                raise TopicExistsError(f"topic {name!r} already exists")
            topic = Topic(name, partitions, retention)
            self._topics[name] = topic
            return topic

    def ensure_topic(
        self, name: str, partitions: int = 1, retention: int | None = None
    ) -> Topic:
        """Create the topic if needed, otherwise return the existing one."""
        with self._lock:
            self._check_open()
            topic = self._topics.get(name)
            if topic is None:
                topic = Topic(name, partitions, retention)
                self._topics[name] = topic
            return topic

    def topic(self, name: str) -> Topic:
        """Look up an existing topic (raises UnknownTopicError)."""
        with self._lock:
            self._check_open()
            try:
                return self._topics[name]
            except KeyError:
                raise UnknownTopicError(f"unknown topic {name!r}") from None

    def topics(self) -> list[str]:
        """Sorted names of all topics."""
        with self._lock:
            return sorted(self._topics)

    def has_topic(self, name: str) -> bool:
        """True when ``name`` exists."""
        with self._lock:
            return name in self._topics

    # -- partition logs, as a consumer reads them -----------------------------

    def partitions(self, topic: str) -> int:
        """Partition count of an existing topic."""
        return self.topic(topic).num_partitions

    def offsets(self, topic: str, partition: int) -> tuple[int, int]:
        """``(start, end)``: oldest retained offset, next offset to be written."""
        log = self.topic(topic).log(partition)
        return log.start_offset, log.end_offset

    def fetch(
        self,
        topic: str,
        partition: int,
        offset: int,
        max_records: int = 1024,
        timeout: float = 0.0,
    ) -> list[Message]:
        """Records from ``offset`` on, waiting up to ``timeout`` s for the first."""
        log = self.topic(topic).log(partition)
        records = log.read(offset, max_records)
        if not records and timeout > 0:
            records = log.read_blocking(offset, max_records, timeout)
        return records

    # -- clients ---------------------------------------------------------------

    def producer(self) -> Producer:
        return Producer(self)

    def consumer(
        self,
        group: str,
        topics: list[str] | None = None,
        auto_offset_reset: str = "earliest",
        auto_commit: bool = True,
    ) -> Consumer:
        return Consumer(self, group, topics, auto_offset_reset, auto_commit)

    # -- consumer-group offsets ---------------------------------------------

    def committed(self, group: str, topic: str, partition: int) -> int | None:
        """A group's committed next-read offset, or None."""
        with self._lock:
            return self._commits.get((group, topic, partition))

    def commit(self, group: str, topic: str, partition: int, offset: int) -> None:
        """Durably record a group's next-read offset."""
        if offset < 0:
            raise ValueError("committed offset must be non-negative")
        with self._lock:
            self._check_open()
            self._commits[(group, topic, partition)] = offset

    def reset_group(self, group: str, topics: Iterable[str] | None = None) -> None:
        """Drop a group's committed offsets (forces a replay-from-policy)."""
        with self._lock:
            selected = None if topics is None else set(topics)
            self._commits = {
                key: value
                for key, value in self._commits.items()
                if not (key[0] == group and (selected is None or key[1] in selected))
            }

    def close(self) -> None:
        """Reject all further operations on this broker."""
        with self._lock:
            self._closed = True
