"""The consumer contract, wherever the partition logs live.

There is one ``Consumer``; what varies is where it reads the logs from.
Every test taking ``logs`` runs four times: on an in-process ``Broker``, in
place on a served broker (tcp and shm transports: ``BrokerServer.consumer``)
and over a socket (``BrokerClient.consumer``). Records are produced through
the matching producer, so the socket cases cross the wire both ways.
"""

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

import pytest

from repro.net import BrokerClient, BrokerServer
from repro.pubsub import (
    Broker,
    Consumer,
    ConsumerGroup,
    InvalidOffsetError,
    Message,
    Producer,
)

LOCATIONS = ["in-process", "in-place-tcp", "in-place-shm", "socket"]


@dataclass
class Logs:
    """One log location: the broker underneath and the clients that reach it."""

    broker: Broker
    consumer: Callable[..., Consumer]
    producer: Callable[[], Any]

    def fill(self, n=30, topic="events"):
        producer = self.producer()
        for i in range(n):
            producer.send(topic, {"i": i}, key=f"k{i % 5}")


@pytest.fixture(params=LOCATIONS)
def logs(request):
    broker = Broker()
    broker.create_topic("events", partitions=3)
    if request.param == "in-process":
        yield Logs(broker, lambda *a, **kw: Consumer(broker, *a, **kw), broker.producer)
        return
    shm = request.param == "in-place-shm"
    with BrokerServer(
        broker,
        transport="shm" if shm else "tcp",
        transport_options={"slots": 4, "slab_bytes": 64 * 1024} if shm else None,
    ) as server:
        if request.param == "socket":
            with BrokerClient(*server.address) as client:
                yield Logs(broker, client.consumer, client.producer)
        else:
            yield Logs(broker, server.consumer, server.producer)


def single_partition(logs, records=0, retention=None):
    logs.broker.create_topic("t", retention=retention)
    producer = logs.producer()
    for i in range(records):
        producer.send("t", {"i": i})
    return producer


def test_one_consumer_class_for_every_location():
    broker = Broker()
    broker.create_topic("t")
    with BrokerServer(broker) as server:
        with BrokerClient(*server.address) as client:
            remote = client.consumer("g", ["t"])
            assert (
                type(remote)
                is type(server.consumer("g", ["t"]))
                is type(broker.consumer("g", ["t"]))
                is Consumer
            )
            remote.close()


# -- start position: committed offset, else the reset policy ------------------


def test_earliest_reads_everything(logs):
    logs.fill()
    consumer = logs.consumer("g", ["events"])
    values = sorted(m.value["i"] for m in consumer.poll())
    assert values == list(range(30))


def test_latest_skips_history(logs):
    logs.fill()
    consumer = logs.consumer("g", ["events"], auto_offset_reset="latest")
    assert consumer.poll() == []
    logs.fill(5)
    assert len(consumer.poll()) == 5


def test_invalid_reset_policy(logs):
    with pytest.raises(ValueError):
        logs.consumer("g", ["events"], auto_offset_reset="whenever")


def test_group_resume_after_restart(logs):
    logs.fill(10)
    consumer = logs.consumer("g", ["events"])
    assert len(consumer.poll()) == 10
    logs.fill(7)
    # a new consumer with the same group id picks up where the group left off
    resumed = logs.consumer("g", ["events"])
    assert len(resumed.poll()) == 7


def test_distinct_groups_independent(logs):
    logs.fill(10)
    a = logs.consumer("ga", ["events"])
    b = logs.consumer("gb", ["events"])
    assert len(a.poll()) == 10
    assert len(b.poll()) == 10


def test_reopened_client_resumes_from_committed(logs):
    single_partition(logs, records=5)
    first = logs.consumer("g", ["t"], auto_commit=False)
    batch = first.poll(max_records=2)
    assert [m.value["i"] for m in batch] == [0, 1]
    first.commit()  # position 2
    first.close()  # client goes away; the group's offsets are broker state
    second = logs.consumer("g", ["t"])
    assert second.position("t", 0) == 2
    assert [m.value["i"] for m in second.poll()] == [2, 3, 4]


def test_commit_beyond_log_end_is_stored_and_polls_empty(logs):
    single_partition(logs, records=3)
    logs.broker.commit("g", "t", 0, 10)  # Kafka allows committing ahead
    consumer = logs.consumer("g", ["t"])
    assert consumer.committed("t", 0) == 10
    assert consumer.position("t", 0) == 10
    assert consumer.poll() == []  # past-the-end read is empty, not an error


def test_committed_beyond_end_catches_up_when_records_arrive(logs):
    producer = single_partition(logs, records=3)
    logs.broker.commit("g", "t", 0, 5)
    consumer = logs.consumer("g", ["t"])
    for i in range(3, 7):  # offsets 3..6: the group resumes at 5
        producer.send("t", {"i": i})
    assert [m.value["i"] for m in consumer.poll()] == [5, 6]


# -- tracking the position: seek, retention, order ----------------------------


def test_seek_replays(logs):
    single_partition(logs, records=10)
    consumer = logs.consumer("g", ["t"])
    assert len(consumer.poll()) == 10
    assert consumer.position("t", 0) == 10
    consumer.seek("t", 0, 5)
    assert [m.value["i"] for m in consumer.poll()] == [5, 6, 7, 8, 9]


def test_seek_unassigned_partition_rejected(logs):
    consumer = logs.consumer("g", ["events"])
    with pytest.raises(InvalidOffsetError, match="not assigned"):
        consumer.seek("events", 99, 0)
    with pytest.raises(InvalidOffsetError, match="not assigned"):
        consumer.seek("other", 0, 0)


def test_retention_fallback_to_earliest(logs):
    logs.broker.create_topic("t", retention=5)
    consumer = logs.consumer("g", ["t"])
    producer = logs.producer()
    for i in range(20):
        producer.send("t", i)
    # first poll: position 0 was trimmed; consumer falls forward to start
    assert [m.value for m in consumer.poll()] == [15, 16, 17, 18, 19]


def test_retention_truncation_below_committed_resets_to_earliest(logs):
    producer = single_partition(logs, records=3, retention=4)
    logs.broker.commit("g", "t", 0, 1)
    for i in range(3, 10):  # retention=4 trims the head to offset 6
        producer.send("t", {"i": i})
    log = logs.broker.topic("t").log(0)
    assert log.start_offset == 6
    with pytest.raises(InvalidOffsetError):
        log.read(1)
    consumer = logs.consumer("g", ["t"])
    assert consumer.position("t", 0) == 1  # resolved from the stale commit
    got = [m.value["i"] for m in consumer.poll()]
    assert got == [6, 7, 8, 9]  # reset to oldest retained, like Kafka
    assert consumer.position("t", 0) == 10


def test_per_key_order_preserved(logs):
    producer = logs.producer()
    for i in range(50):
        producer.send("events", i, key=f"key-{i % 7}")
    consumer = logs.consumer("g", ["events"])
    per_key: dict[str, list[int]] = {}
    for message in consumer.poll():
        per_key.setdefault(message.key, []).append(message.value)
    assert len(per_key) == 7
    for values in per_key.values():
        assert values == sorted(values)


def test_records_keep_their_metadata(logs):
    producer = single_partition(logs)
    for i in range(4):
        producer.send("t", {"i": i}, key="k", timestamp=float(i), headers={"h": i})
    messages = logs.consumer("g", ["t"]).poll()
    assert [m.value for m in messages] == [{"i": i} for i in range(4)]
    assert [m.offset for m in messages] == [0, 1, 2, 3]
    first = messages[0]
    assert (first.topic, first.partition, first.key) == ("t", 0, "k")
    assert first.timestamp == 0.0 and first.headers == {"h": 0}


def test_iterator_drains(logs):
    logs.fill(12)
    consumer = logs.consumer("g", ["events"])
    assert len(list(consumer)) == 12


def test_max_records_bounds_a_poll_across_partitions(logs):
    logs.fill(30)
    consumer = logs.consumer("g", ["events"])
    sizes = []
    while batch := consumer.poll(max_records=7):
        sizes.append(len(batch))
    assert sum(sizes) == 30 and max(sizes) <= 7


# -- waiting for data ---------------------------------------------------------


def test_blocking_poll_returns_within_its_timeout(logs):
    single_partition(logs)
    consumer = logs.consumer("g", ["t"])
    started = time.monotonic()
    assert consumer.poll(timeout=0.2) == []
    assert 0.15 <= time.monotonic() - started < 2.0


def test_blocking_poll_wakes_on_produce(logs):
    producer = single_partition(logs)
    consumer = logs.consumer("g", ["t"])
    got = []
    thread = threading.Thread(target=lambda: got.extend(consumer.poll(timeout=5.0)))
    started = time.monotonic()
    thread.start()
    producer.send("t", {"x": 1})
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert time.monotonic() - started < 4.0  # woken by the record, not the clock
    assert [m.value for m in got] == [{"x": 1}]


def test_blocking_poll_does_not_wait_when_another_partition_had_data(logs):
    """Only the first assigned partition is ever waited on, and only when
    the others came back empty."""
    producer = logs.producer()
    producer.send("events", {"x": 1}, partition=2)
    consumer = logs.consumer("g", ["events"])
    started = time.monotonic()
    assert [m.partition for m in consumer.poll(timeout=5.0)] == [2]
    assert time.monotonic() - started < 2.0


# -- commits: whole assignment and per partition ------------------------------


def test_manual_commit(logs):
    logs.fill(10)
    consumer = logs.consumer("g", ["events"], auto_commit=False)
    assert len(consumer.poll()) == 10
    # nothing committed -> a sibling starts from scratch
    sibling = logs.consumer("g", ["events"])
    assert len(sibling.poll()) == 10
    sibling.commit()
    third = logs.consumer("g", ["events"])
    assert third.poll() == []


def test_committed_none_before_any_commit(logs):
    consumer = logs.consumer("g", ["events"], auto_commit=False)
    assert consumer.committed("events", 0) is None


def test_per_partition_commit_explicit_offset(logs):
    logs.fill(30)
    consumer = logs.consumer("g", ["events"], auto_commit=False)
    consumer.poll()
    consumer.commit("events", 1, 4)
    assert consumer.committed("events", 1) == 4
    # the other partitions stay uncommitted
    assert consumer.committed("events", 0) is None
    assert consumer.committed("events", 2) is None


def test_per_partition_commit_defaults_to_position(logs):
    logs.fill(30)
    consumer = logs.consumer("g", ["events"], auto_commit=False)
    consumer.poll()
    consumer.commit("events", 0)
    assert consumer.committed("events", 0) == consumer.position("events", 0)


def test_per_partition_commit_independent_of_read_position(logs):
    """A checkpoint pins the barrier offset, not how far we read since."""
    logs.fill(30)
    consumer = logs.consumer("g", ["events"], auto_commit=False)
    consumer.poll()  # read everything
    consumer.commit("events", 0, 2)  # ... but pin an earlier cut
    resumed = logs.consumer("g", ["events"])
    assert resumed.position("events", 0) == 2


def test_seek_then_commit_explicit_offset_roundtrip(logs):
    single_partition(logs, records=5)
    consumer = logs.consumer("g", ["t"], auto_commit=False)
    consumer.seek("t", 0, 4)
    assert [m.value["i"] for m in consumer.poll()] == [4]
    consumer.commit("t", 0, 2)  # pin an offset unrelated to the position
    assert consumer.committed("t", 0) == 2
    replay = logs.consumer("g", ["t"])
    assert [m.value["i"] for m in replay.poll()] == [2, 3, 4]


def test_commit_argument_rules(logs):
    consumer = logs.consumer("g", ["events"], auto_commit=False)
    with pytest.raises(ValueError):
        consumer.commit(partition=0)
    with pytest.raises(ValueError):
        consumer.commit(offset=3)
    with pytest.raises(ValueError):
        consumer.commit("events")
    with pytest.raises(InvalidOffsetError):
        consumer.commit("events", 0, -1)
    with pytest.raises(InvalidOffsetError):
        consumer.commit("events", 99)  # no position to default to
    assert all(consumer.committed("events", p) is None for p in range(3))


def test_commit_then_rebalance_resumes_at_commit(logs):
    """Offsets committed per partition survive a group rebalance."""
    logs.fill(30)
    first = logs.consumer("g", ["events"], auto_commit=False)
    first.poll()
    for partition in range(3):
        first.commit("events", partition, 3)
    # rebalance: two fresh members split the same partitions
    seen = []
    for share in ([("events", 0), ("events", 2)], [("events", 1)]):
        member = logs.consumer("g")
        member.assign(share)
        assert member.assignment == share
        seen.extend(m.offset for m in member.poll())
    # every partition resumed at offset 3 -> offsets 0..2 never re-read
    assert min(seen) == 3
    assert len(seen) == 30 - 3 * 3


def test_rebalance_mixed_commit_state(logs):
    """Partitions without a commit fall back to the reset policy."""
    logs.fill(30)
    consumer = logs.consumer("g", ["events"], auto_commit=False)
    consumer.poll()
    consumer.commit("events", 0, 5)  # only partition 0 has a cut
    resumed = logs.consumer("g", ["events"])
    assert resumed.position("events", 0) == 5
    assert resumed.position("events", 1) == 0  # earliest
    assert resumed.position("events", 2) == 0


# -- the seam itself: what a poll asks of the logs -----------------------------


class RecordingLogs:
    """A fake ``PartitionLogs``: two partitions, every fetch written down."""

    def __init__(self, records: dict[int, int]) -> None:
        self.records = records  # partition -> how many records it holds
        self.fetches: list[tuple[int, int, float]] = []

    def partitions(self, topic):
        return len(self.records)

    def offsets(self, topic, partition):
        return 0, self.records[partition]

    def fetch(self, topic, partition, offset, max_records, timeout):
        self.fetches.append((partition, offset, timeout))
        stop = min(self.records[partition], offset + max_records)
        return [
            Message(topic, partition, o, None, o, 0.0) for o in range(offset, stop)
        ]

    def commit(self, group, topic, partition, offset):
        pass

    def committed(self, group, topic, partition):
        return None


def test_poll_is_one_fetch_per_partition_and_waits_on_the_first_last():
    """The shape that keeps a worker's poll at one round trip: the first
    assigned partition is fetched last, carrying the timeout only when the
    others had nothing — never a second, blocking pass."""
    idle = RecordingLogs({0: 0, 1: 0})
    assert Consumer(idle, "g", ["t"]).poll(timeout=1.5) == []
    assert idle.fetches == [(1, 0, 0.0), (0, 0, 1.5)]

    busy = RecordingLogs({0: 2, 1: 3})
    got = Consumer(busy, "g", ["t"]).poll(timeout=1.5)
    assert busy.fetches == [(1, 0, 0.0), (0, 0, 0.0)]
    assert [(m.partition, m.offset) for m in got] == [
        (1, 0), (1, 1), (1, 2), (0, 0), (0, 1),
    ]

    full = RecordingLogs({0: 2, 1: 3})
    assert len(Consumer(full, "g", ["t"]).poll(max_records=3, timeout=1.5)) == 3
    assert full.fetches == [(1, 0, 0.0)]  # budget spent: partition 0 waits its turn


def test_close_releases_once_and_only_what_the_consumer_owns():
    closed = []
    broker = Broker()
    broker.create_topic("t")
    consumer = Consumer(broker, "g", ["t"], on_close=lambda: closed.append(1))
    consumer.close()
    consumer.close()
    assert closed == [1]
    Consumer(broker, "g", ["t"]).close()  # nothing of its own: the broker stays open
    assert broker.consumer("g2", ["t"]).poll() == []


# -- ConsumerGroup: static range assignment ------------------------------------


def test_consumer_group_covers_all_partitions():
    broker = Broker()
    broker.create_topic("events", partitions=3)
    producer = Producer(broker)
    for i in range(30):
        producer.send("events", {"i": i}, key=f"k{i % 5}")
    group = ConsumerGroup(broker, "g", "events", members=2)
    seen = []
    for member in group.members:
        seen.extend(m.value["i"] for m in member.poll())
    assert sorted(seen) == list(range(30))
    # partitions split disjointly
    assignments = [set(m.assignment) for m in group.members]
    assert assignments[0].isdisjoint(assignments[1])
