"""Producer client: publishes records into broker topics."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from .broker import Broker


class Producer:
    """Publishes records to a broker, hashing keys to partitions.

    ``auto_create`` mirrors Kafka's ``auto.create.topics.enable``: STRATA's
    connectors rely on it so deploying a pipeline never races topic setup.
    """

    def __init__(
        self, broker: Broker, auto_create: bool = True, default_partitions: int = 1
    ) -> None:
        self._broker = broker
        self._auto_create = auto_create
        self._default_partitions = default_partitions
        self._sent = 0

    @property
    def records_sent(self) -> int:
        return self._sent

    def partitions_of(self, topic: str) -> int:
        """Partition count of ``topic`` (for per-partition broadcasts)."""
        if self._auto_create:
            return self._broker.ensure_topic(
                topic, self._default_partitions
            ).num_partitions
        return self._broker.topic(topic).num_partitions

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
        if self._auto_create:
            topic_obj = self._broker.ensure_topic(topic, self._default_partitions)
        else:
            topic_obj = self._broker.topic(topic)
        self._sent += 1
        return topic_obj.append(key, value, timestamp, headers, partition)

    def send_batch(
        self, topic: str, records: list[dict[str, Any]]
    ) -> list[tuple[int, int]]:
        """Publish many records to one topic (``value`` plus ``send``'s keywords)."""
        return [self.send(topic, **record) for record in records]

    def close(self) -> None:
        """Nothing to release: the broker owns everything this client touched."""
