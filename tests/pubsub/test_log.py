"""Partition log: offsets, retention, blocking reads."""

import threading
import time

import pytest

from repro.pubsub.errors import InvalidOffsetError
from repro.pubsub.log import PartitionLog


def test_offsets_monotonic():
    log = PartitionLog("t", 0)
    offsets = [log.append(None, i) for i in range(10)]
    assert offsets == list(range(10))
    assert log.start_offset == 0
    assert log.end_offset == 10


def test_read_from_offset():
    log = PartitionLog("t", 0)
    for i in range(10):
        log.append(None, i)
    records = log.read(4, max_records=3)
    assert [m.value for m in records] == [4, 5, 6]
    assert [m.offset for m in records] == [4, 5, 6]


def test_read_past_end_returns_empty():
    log = PartitionLog("t", 0)
    log.append(None, "x")
    assert log.read(1) == []
    assert log.read(5) == []


def test_read_before_retention_raises():
    log = PartitionLog("t", 0, retention=3)
    for i in range(10):
        log.append(None, i)
    assert log.start_offset == 7
    with pytest.raises(InvalidOffsetError):
        log.read(0)
    assert [m.value for m in log.read(7)] == [7, 8, 9]


def test_retention_preserves_offset_numbering():
    log = PartitionLog("t", 0, retention=2)
    for i in range(5):
        log.append(None, i)
    records = log.read(log.start_offset)
    assert [m.offset for m in records] == [3, 4]


def test_message_metadata():
    log = PartitionLog("topic-x", 3)
    log.append("key1", {"v": 1}, timestamp=123.0, headers={"h": 1})
    message = log.read(0)[0]
    assert message.topic == "topic-x"
    assert message.partition == 3
    assert message.key == "key1"
    assert message.timestamp == 123.0
    assert message.headers == {"h": 1}


def test_read_blocking_wakes_on_append():
    log = PartitionLog("t", 0)
    got = []

    def reader():
        got.extend(log.read_blocking(0, timeout=5.0))

    thread = threading.Thread(target=reader)
    thread.start()
    time.sleep(0.05)
    log.append(None, "wake")
    thread.join(timeout=5.0)
    assert [m.value for m in got] == ["wake"]


def test_read_blocking_times_out():
    log = PartitionLog("t", 0)
    started = time.monotonic()
    assert log.read_blocking(0, timeout=0.05) == []
    assert time.monotonic() - started < 1.0


def test_trim_drops_the_head_and_keeps_numbering():
    log = PartitionLog("t", 0)
    for i in range(6):
        log.append(None, i)
    assert log.trim(4) == 4
    assert (log.start_offset, log.end_offset) == (4, 6)
    assert [m.offset for m in log.read(4)] == [4, 5]
    with pytest.raises(InvalidOffsetError):
        log.read(3)
    assert log.trim(2) == 0  # below the start: nothing left to drop
    assert log.trim(99) == 2  # past the end: everything goes, numbering stays
    assert log.append(None, "next") == 6 and log.start_offset == 6


def test_broker_trim_reaches_one_partition():
    from repro.pubsub import Broker

    broker = Broker()
    broker.create_topic("t", partitions=2)
    producer = broker.producer()
    for i in range(3):
        producer.send("t", i, partition=0)
        producer.send("t", i, partition=1)
    assert broker.trim("t", 1, 2) == 2
    assert broker.offsets("t", 0) == (0, 3)
    assert broker.offsets("t", 1) == (2, 3)
