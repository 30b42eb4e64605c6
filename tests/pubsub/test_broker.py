"""Broker topic registry and consumer-group offset bookkeeping."""

import pytest

from repro.pubsub import Broker, BrokerClosedError, TopicExistsError, UnknownTopicError


def test_create_and_lookup():
    broker = Broker()
    broker.create_topic("ot", partitions=2)
    assert broker.topic("ot").num_partitions == 2
    assert broker.topics() == ["ot"]
    assert broker.has_topic("ot")


def test_duplicate_create_rejected():
    broker = Broker()
    broker.create_topic("t")
    with pytest.raises(TopicExistsError):
        broker.create_topic("t")


def test_ensure_topic_idempotent():
    broker = Broker()
    first = broker.ensure_topic("t", partitions=3)
    second = broker.ensure_topic("t", partitions=99)  # partitions ignored
    assert first is second
    assert second.num_partitions == 3


def test_unknown_topic():
    broker = Broker()
    with pytest.raises(UnknownTopicError):
        broker.topic("nope")


def test_commit_and_fetch():
    broker = Broker()
    broker.create_topic("t")
    assert broker.committed("g", "t", 0) is None
    broker.commit("g", "t", 0, 17)
    assert broker.committed("g", "t", 0) == 17
    assert broker.committed("other-group", "t", 0) is None


def test_negative_commit_rejected():
    broker = Broker()
    with pytest.raises(ValueError):
        broker.commit("g", "t", 0, -1)


def test_reset_group():
    broker = Broker()
    broker.commit("g", "a", 0, 5)
    broker.commit("g", "b", 0, 7)
    broker.commit("g2", "a", 0, 9)
    broker.reset_group("g", topics=["a"])
    assert broker.committed("g", "a", 0) is None
    assert broker.committed("g", "b", 0) == 7
    broker.reset_group("g")
    assert broker.committed("g", "b", 0) is None
    assert broker.committed("g2", "a", 0) == 9


def test_closed_broker_rejects_operations():
    broker = Broker()
    broker.close()
    with pytest.raises(BrokerClosedError):
        broker.create_topic("t")


def test_committed_offsets_survive_broker_close():
    from repro.pubsub import Consumer, Producer

    broker = Broker()
    broker.create_topic("t")
    producer = Producer(broker)
    for i in range(3):
        producer.send("t", {"i": i})
    consumer = Consumer(broker, "g", ["t"])
    consumer.poll()
    broker.close()
    # offset state stays readable after close; data-plane calls are refused
    assert broker.committed("g", "t", 0) == 3
    with pytest.raises(BrokerClosedError):
        Consumer(broker, "g2", ["t"])
    with pytest.raises(BrokerClosedError):
        broker.commit("g", "t", 0, 4)
