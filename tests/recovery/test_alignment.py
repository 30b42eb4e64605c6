"""Barrier alignment across fan-in and fan-out in the schedulers."""

import pytest

from repro.kvstore.memory import MemoryStore
from repro.recovery import CheckpointableSource, CheckpointCoordinator
from repro.spe import (
    CollectingSink,
    IterableSource,
    JoinOperator,
    Query,
    StreamEngine,
    UnionOperator,
)

from .conftest import make_tuples, paced


def _fanin_query(n=40, delay=0.01, operator="union"):
    q = Query("fanin")
    left = CheckpointableSource(IterableSource("L", paced(make_tuples(n), delay)))
    right = CheckpointableSource(IterableSource("R", paced(make_tuples(n), delay)))
    q.add_source("L", left)
    q.add_source("R", right)
    if operator == "union":
        q.add_operator("merge", UnionOperator("merge", num_inputs=2), ["L", "R"])
    else:
        q.add_operator(
            "merge",
            JoinOperator(
                "merge",
                ws=0.0,
                group_by=lambda t: (t.job, t.layer),
                combiner=lambda l, r: l.derive(
                    payload={"x": l.payload["x"] + r.payload["x"]}
                ),
            ),
            ["L", "R"],
        )
    sink = CollectingSink("out")
    q.add_sink("out", sink, "merge")
    return q, sink


@pytest.mark.parametrize("operator", ["union", "join"])
def test_two_input_node_aligns_before_snapshot(operator):
    """The merge node must wait for the barrier on BOTH inputs; the epoch
    commits exactly once with both source positions captured."""
    query, sink = _fanin_query(operator=operator)
    coordinator = CheckpointCoordinator(MemoryStore())
    engine = StreamEngine(mode="threaded")
    engine.start(query, checkpointer=coordinator)
    epoch = coordinator.trigger(timeout=10.0)
    engine.wait(timeout=30)
    storage = coordinator.storage
    manifest = storage.load_manifest(epoch)
    assert manifest["sources"] == ["L", "R"]
    assert storage.load_source_position(epoch, "L") is not None
    assert storage.load_source_position(epoch, "R") is not None
    assert len(sink.results) == (80 if operator == "union" else 40)


def test_join_snapshot_consistent_with_cuts():
    """At an aligned barrier, the join buffers hold exactly the unmatched
    prefix tuples: restoring them + replaying both suffixes must reproduce
    the uninterrupted join output."""
    query, sink = _fanin_query(n=30, delay=0.01, operator="join")
    coordinator = CheckpointCoordinator(MemoryStore())
    engine = StreamEngine(mode="threaded")
    engine.start(query, checkpointer=coordinator)
    epoch = coordinator.trigger(timeout=10.0)
    engine.wait(timeout=30)
    storage = coordinator.storage
    state = storage.load_node_state(epoch, "merge")
    cut_l = storage.load_source_position(epoch, "L")["emitted"]
    cut_r = storage.load_source_position(epoch, "R")["emitted"]

    # replay: fresh topology, restore state, feed the post-cut suffixes
    replay_query = Query("replay")
    left = CheckpointableSource(IterableSource("L", iter(make_tuples(30))))
    right = CheckpointableSource(IterableSource("R", iter(make_tuples(30))))
    replay_query.add_source("L", left)
    replay_query.add_source("R", right)
    join = JoinOperator(
        "merge",
        ws=0.0,
        group_by=lambda t: (t.job, t.layer),
        combiner=lambda l, r: l.derive(payload={"x": l.payload["x"] + r.payload["x"]}),
    )
    replay_sink = CollectingSink("out")
    replay_query.add_operator("merge", join, ["L", "R"])
    replay_query.add_sink("out", replay_sink, "merge")
    join.restore_state(state)
    left.restore_position({"kind": "count", "emitted": cut_l})
    right.restore_position({"kind": "count", "emitted": cut_r})
    StreamEngine(mode="sync").run(replay_query)

    # With a single producer per input, the aligned cut is exact: the join
    # had matched exactly the layers where BOTH sides were pre-barrier, so
    # the replay emits precisely the remaining layers — no loss, no dupes.
    matched_before_cut = min(cut_l, cut_r)
    replayed = sorted(t.payload["x"] for t in replay_sink.results)
    assert replayed == [2 * x for x in range(matched_before_cut, 30)]


def test_sync_scheduler_checkpoints_too(chain_query_factory):
    """The synchronous scheduler carries barriers end to end: an epoch
    requested right after bind (before any tuple flows) commits with the
    zero state and position 0."""
    query, source, fn, sink = chain_query_factory(n=10, delay=0.0)
    coordinator = CheckpointCoordinator(MemoryStore())
    engine = StreamEngine(mode="sync")
    # on_built runs after checkpointer.bind and before execution starts
    engine.run(
        query,
        checkpointer=coordinator,
        on_built=lambda nodes: coordinator.request_checkpoint(),
    )
    assert coordinator.storage.epochs() == [0]
    position = coordinator.storage.load_source_position(0, "src")
    assert position == {"kind": "count", "emitted": 0}
    assert coordinator.storage.load_node_state(0, "sum")["fn"]["total"] == 0
    assert len(sink.results) == 10


def test_buffering_sink_is_flushed_before_it_acknowledges_the_epoch():
    """A sink with ``flush()`` (a batching connector writer) must publish
    its pre-barrier tuples before its snapshot is taken: once the epoch
    commits, a crash must not find tuples the manifest calls delivered
    still sitting in the sink's buffer."""
    from repro.spe.barrier import CheckpointBarrier
    from repro.spe.scheduler import NodeExecutor

    events = []

    class BufferingSink(CollectingSink):
        def __init__(self, name):
            super().__init__(name)
            self.buffer = []

        def consume(self, t):
            self.buffer.append(t)

        def flush(self):
            for t in self.buffer:
                super().consume(t)
            self.buffer.clear()

    sink = BufferingSink("out")
    q = Query("buffered")
    q.add_source("src", IterableSource("src", iter(())))
    q.add_sink("out", sink, "src")
    node = next(n for n in q.build() if n.kind == "sink")
    ex = NodeExecutor(
        node,
        checkpoint_listener=lambda name, epoch, state: events.append(
            (name, epoch, len(sink.buffer), len(sink.results))
        ),
    )
    for t in make_tuples(3):
        ex.handle(0, t)
    assert len(sink.buffer) == 3  # nothing told it to publish yet
    ex.handle(0, CheckpointBarrier(0))
    assert events == [("out", 0, 0, 3)]


def test_an_input_closing_mid_epoch_counts_as_aligned():
    """Input 0 delivered epoch 5's barrier and is blocked; input 1 then
    closes before its barrier arrives. A closed input can never deliver
    it, so the epoch completes there, with exactly one snapshot."""
    from repro.spe import END_OF_STREAM
    from repro.spe.barrier import CheckpointBarrier, is_barrier
    from repro.spe.scheduler import NodeExecutor

    snapshots = []
    q = Query("closing")
    q.add_source("L", IterableSource("L", iter(())))
    q.add_source("R", IterableSource("R", iter(())))
    q.add_operator("merge", UnionOperator("merge", num_inputs=2), ["L", "R"])
    q.add_sink("out", CollectingSink("out"), "merge")
    node = next(n for n in q.build() if n.name == "merge")
    ex = NodeExecutor(
        node,
        checkpoint_listener=lambda name, epoch, state: snapshots.append(
            (name, epoch)
        ),
    )
    left, right = make_tuples(2)
    ex.handle(0, CheckpointBarrier(5))
    assert ex.input_blocked(0) and ex.ready_inputs == [1]
    ex.handle(1, right)  # pre-barrier data on the open input still flows
    assert snapshots == []
    ex.handle(1, END_OF_STREAM)
    assert snapshots == [("merge", 5)]
    assert not ex.input_blocked(0) and ex.ready_inputs == [0]
    assert not ex.finalized
    ex.handle(0, left)
    ex.handle(0, END_OF_STREAM)
    assert snapshots == [("merge", 5)] and ex.finalized
    out = node.outputs[0]
    items = []
    while (item := out.try_get()) is not END_OF_STREAM:
        items.append(item)
    assert [type(i).__name__ if is_barrier(i) else i.payload for i in items] == [
        right.payload, "CheckpointBarrier", left.payload,
    ]
