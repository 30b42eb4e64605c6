"""Bounded streams: FIFO, back-pressure, end-of-stream protocol."""

import threading
import time

import pytest

from repro.spe.stream import END_OF_STREAM, Stream


def test_fifo_order():
    stream = Stream("s")
    for i in range(5):
        stream.put(i)
    assert [stream.try_get() for _ in range(5)] == [0, 1, 2, 3, 4]
    assert stream.try_get() is None


def test_len_and_counters():
    stream = Stream("s")
    stream.put("a")
    stream.put("b")
    assert len(stream) == 2
    stream.try_get()
    assert stream.produced == 2
    assert stream.consumed == 1


def test_capacity_blocks_and_backpressure_releases():
    stream = Stream("s", capacity=2)
    stream.put(1)
    stream.put(2)
    assert stream.put(3, timeout=0.05) is False  # full: producer blocked

    def consume_later():
        time.sleep(0.05)
        stream.try_get()

    thread = threading.Thread(target=consume_later)
    thread.start()
    assert stream.put(3, timeout=2.0) is True  # unblocked by the consumer
    thread.join()


def test_eos_single_producer():
    stream = Stream("s")
    stream.put("data")
    stream.put(END_OF_STREAM)
    assert stream.try_get() == "data"
    assert stream.try_get() is END_OF_STREAM
    # EOS stays visible for repeated polls
    assert stream.try_get() is END_OF_STREAM


def test_data_before_eos_is_delivered_first():
    stream = Stream("s")
    stream.put(1)
    stream.put(END_OF_STREAM)
    assert stream.try_get() == 1
    assert stream.try_get() is END_OF_STREAM


def test_eos_bypasses_capacity():
    stream = Stream("s", capacity=1)
    stream.put("fill")
    assert stream.put(END_OF_STREAM, timeout=0.01) is True


def test_drain():
    stream = Stream("s")
    for i in range(10):
        stream.put(i)
    stream.put(END_OF_STREAM)
    assert stream.drain(max_items=4) == [0, 1, 2, 3]
    assert stream.drain() == [4, 5, 6, 7, 8, 9]
    assert stream.drain() == []  # EOS is not drained
    assert stream.try_get() is END_OF_STREAM


def test_blocking_get_wakes_on_put():
    stream = Stream("s")
    result = []

    def reader():
        result.append(stream.get(timeout=5.0))

    thread = threading.Thread(target=reader)
    thread.start()
    time.sleep(0.02)
    stream.put("hello")
    thread.join(timeout=5.0)
    assert result == ["hello"]


def test_invalid_capacity():
    with pytest.raises(ValueError):
        Stream("s", capacity=0)

