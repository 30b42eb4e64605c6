"""Pub/sub connectors bridging STRATA modules."""

import threading

from repro.core.connectors import (
    EOS_SENTINEL,
    PubSubReaderSource,
    PubSubWriterSink,
    topic_for_stream,
)
from repro.pubsub import Broker, Consumer, Producer
from repro.spe import StreamTuple


def make_tuple(i):
    return StreamTuple(tau=float(i), job="J", layer=i, payload={"x": i})


def test_topic_naming():
    assert topic_for_stream("OT&pp") == "strata.OT&pp"


def test_writer_publishes_tuples_and_sentinel():
    broker = Broker()
    writer = PubSubWriterSink("w", broker, "strata.s")
    for i in range(3):
        writer.accept(make_tuple(i))
    writer.on_close()
    consumer = Consumer(broker, "probe", ["strata.s"])
    values = [m.value for m in consumer.poll()]
    assert [v.layer for v in values[:3]] == [0, 1, 2]
    assert values[3] == EOS_SENTINEL


def test_reader_stops_at_sentinel():
    broker = Broker()
    writer = PubSubWriterSink("w", broker, "strata.s")
    for i in range(5):
        writer.accept(make_tuple(i))
    writer.on_close()
    reader = PubSubReaderSource("r", broker, "strata.s")
    got = list(reader)
    assert [t.layer for t in got] == [0, 1, 2, 3, 4]


def test_reader_blocks_until_data_arrives():
    broker = Broker()
    broker.ensure_topic("strata.s")
    reader = PubSubReaderSource("r", broker, "strata.s")
    got = []

    def drain():
        got.extend(reader)

    thread = threading.Thread(target=drain)
    thread.start()
    writer = PubSubWriterSink("w", broker, "strata.s")
    writer.accept(make_tuple(0))
    writer.on_close()
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert len(got) == 1


def test_ingest_time_preserved_across_hop():
    """Latency must span the connector hop (paper's latency definition)."""
    broker = Broker()
    writer = PubSubWriterSink("w", broker, "strata.s")
    t = make_tuple(0)
    t.ingest_time = 42.5
    writer.accept(t)
    writer.on_close()
    reader = PubSubReaderSource("r", broker, "strata.s")
    got = list(reader)
    assert got[0].ingest_time == 42.5


def test_two_readers_with_distinct_groups_both_replay():
    broker = Broker()
    writer = PubSubWriterSink("w", broker, "strata.s")
    writer.accept(make_tuple(0))
    writer.on_close()
    a = list(PubSubReaderSource("r1", broker, "strata.s"))
    b = list(PubSubReaderSource("r2", broker, "strata.s"))
    assert len(a) == len(b) == 1


def test_eos_broadcast_reaches_every_partition():
    broker = Broker()
    broker.create_topic("strata.s", partitions=3)
    writer = PubSubWriterSink("w", broker, "strata.s")
    for i in range(6):
        writer.accept(make_tuple(i))
    writer.on_close()
    for partition in range(3):
        log = broker.topic("strata.s").log(partition)
        values = [m.value for m in log.read(0)]
        assert values.count(EOS_SENTINEL) == 1  # one sentinel per partition
        assert values[-1] == EOS_SENTINEL


def test_reader_drains_multi_partition_topic():
    broker = Broker()
    broker.create_topic("strata.s", partitions=3)
    writer = PubSubWriterSink("w", broker, "strata.s")
    for i in range(9):
        writer.accept(make_tuple(i))
    writer.on_close()
    reader = PubSubReaderSource("r", broker, "strata.s")
    got = list(reader)  # would hang forever if any partition lacked its EOS
    assert sorted(t.layer for t in got) == list(range(9))


def test_reader_waits_for_eos_on_every_partition():
    broker = Broker()
    broker.create_topic("strata.s", partitions=2)
    producer = Producer(broker)
    producer.send("strata.s", make_tuple(0), partition=0)
    producer.send("strata.s", EOS_SENTINEL, partition=0)
    reader = PubSubReaderSource("r", broker, "strata.s")
    got = []

    def drain():
        got.extend(reader)

    thread = threading.Thread(target=drain)
    thread.start()
    thread.join(timeout=0.3)
    assert thread.is_alive()  # partition 1 has no sentinel yet
    producer.send("strata.s", make_tuple(1), partition=1)
    producer.send("strata.s", EOS_SENTINEL, partition=1)
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert sorted(t.layer for t in got) == [0, 1]


def test_dedup_reader_suppresses_replayed_content():
    broker = Broker()
    writer = PubSubWriterSink("w", broker, "strata.s")
    for _ in range(2):  # publish the same logical records twice
        for i in range(3):
            writer.accept(make_tuple(i))
    writer.on_close()
    reader = PubSubReaderSource("r", broker, "strata.s", dedup=True)
    got = list(reader)
    assert [t.layer for t in got] == [0, 1, 2]
    assert reader.duplicates_suppressed == 3
    plain = PubSubReaderSource("r2", broker, "strata.s")
    assert len(list(plain)) == 6  # without dedup, the replay is visible
    assert plain.duplicates_suppressed == 0


def test_reader_rebind_keeps_group_and_overrides_flags():
    first = Broker()
    reader = PubSubReaderSource("r", first, "strata.s", group="g")
    second = Broker()
    writer = PubSubWriterSink("w", second, "strata.s")
    writer.accept(make_tuple(0))
    writer.accept(make_tuple(0))  # duplicate content
    writer.on_close()
    reader.rebind(second, auto_commit=False, dedup=True)
    assert reader.group == "g"
    assert [t.layer for t in list(reader)] == [0]
    assert reader.duplicates_suppressed == 1
    # no commit happened: the group can replay from earliest on the broker
    assert second.committed("g", "strata.s", 0) is None


# -- block records ---------------------------------------------------------------


def _publish_blocks(broker):
    """A topic holding block(5 rows), tuple, block(3 rows), sentinel."""
    from repro.spe import ColumnarBlock

    producer = Producer(broker)
    rows = [make_tuple(i) for i in range(9)]
    for t in rows:
        t.job, t.layer = "J", 0  # one record key; tau keeps the rows distinct
    producer.send("strata.s", ColumnarBlock.from_tuples(rows[:5]), key="J/0")
    producer.send("strata.s", rows[5], key="J/0")
    producer.send("strata.s", ColumnarBlock.from_tuples(rows[6:]), key="J/0")
    producer.send("strata.s", EOS_SENTINEL, partition=0)
    return rows


def test_reader_unpacks_block_records_and_hands_over_runs():
    broker = Broker()
    rows = _publish_blocks(broker)
    assert [t.tau for t in PubSubReaderSource("r", broker, "strata.s")] == [
        t.tau for t in rows
    ]
    runs = list(PubSubReaderSource("r2", broker, "strata.s").runs())
    assert [len(r) if isinstance(r, list) else 1 for r in runs] == [5, 1, 3]


def test_barrier_falls_on_a_record_boundary_and_restore_loses_nothing():
    """A checkpoint requested while a block's rows are being delivered is
    taken after the block: the captured offsets name the first record not
    yet handed over, and a restore from them yields exactly the rest."""
    from repro.recovery.source import CheckpointableSource
    from repro.spe.barrier import CheckpointBarrier, is_barrier

    broker = Broker()
    rows = _publish_blocks(broker)
    source = CheckpointableSource(PubSubReaderSource("r", broker, "strata.s"))
    captured = {}
    before, after = [], []
    for item in source:
        if is_barrier(item):
            continue
        (after if captured else before).append(item.tau)
        if len(before) == 2 and not captured and not source._pending:
            # mid-block: rows 0 and 1 of the first record are out
            source.request_barrier(
                CheckpointBarrier(1),
                lambda name, epoch, position: captured.update(position),
            )
    assert before == [t.tau for t in rows[:5]]  # the block was finished first
    assert after == [t.tau for t in rows[5:]]
    assert captured == {"kind": "pubsub", "offsets": [["strata.s", 0, 1]]}

    restored = CheckpointableSource(PubSubReaderSource("r2", broker, "strata.s"))
    restored.restore_position(captured)
    assert [t.tau for t in restored if not is_barrier(t)] == [t.tau for t in rows[5:]]


# -- commits: acked offsets, the dedup horizon -----------------------------------


def test_writer_state_is_its_acked_end_offsets():
    broker = Broker()
    writer = PubSubWriterSink("w", broker, "strata.s", batch_size=4)
    assert writer.snapshot_state() == {"acked": []}
    for i in range(3):
        writer.accept(make_tuple(i))
    assert writer.snapshot_state() == {"acked": []}  # still buffered
    writer.flush()
    state = writer.snapshot_state()
    assert state == {"acked": [[0, broker.offsets("strata.s", 0)[1]]]}
    restored = PubSubWriterSink("w2", broker, "strata.s")
    restored.restore_state(state)
    assert restored.snapshot_state() == state


def test_dedup_forgets_keys_below_the_horizon_only():
    """A key is dropped as a duplicate while its first record lies at or
    above the producer's committed offset, and forgotten once below it."""
    broker = Broker()
    producer = Producer(broker)
    for i in range(4):  # offsets 0-3: layers 0-3
        producer.send("strata.s", make_tuple(i))
    reader = PubSubReaderSource("r", broker, "strata.s", dedup=True)
    runs = reader.runs()
    assert [next(runs).layer for _ in range(4)] == [0, 1, 2, 3]
    assert reader.dedup_keys == 4
    reader.forget_below([["strata.s", 0, 2], ["strata.other", 0, 99]])
    for i in range(4):  # a republish of all four: offsets 4-7
        producer.send("strata.s", make_tuple(i))
    producer.send("strata.s", EOS_SENTINEL, partition=0)
    # layers 0 and 1 lay below the horizon: forgotten, so delivered again
    assert [t.layer for t in runs] == [0, 1]
    assert reader.duplicates_suppressed == 2


def test_a_reader_that_does_not_commit_pins_no_checkpoint_offsets():
    broker = Broker()
    Producer(broker).send("strata.s", make_tuple(0))
    quiet = PubSubReaderSource("r", broker, "strata.s", group="g", auto_commit=False)
    quiet.commit_offsets([["strata.s", 0, 1]])
    assert broker.committed("g", "strata.s", 0) is None
    pinning = PubSubReaderSource("r2", broker, "strata.s", group="g2")
    pinning.commit_offsets([["strata.s", 0, 1]])
    assert broker.committed("g2", "strata.s", 0) == 1
