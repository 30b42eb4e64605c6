"""Scheduler semantics: sync/threaded equivalence, errors, shutdown."""

import time

import pytest

from repro.spe import (
    AggregateOperator,
    CollectingSink,
    FilterOperator,
    IterableSource,
    JoinOperator,
    ListSource,
    MapOperator,
    OperatorError,
    PlanConfig,
    Query,
    StreamEngine,
    StreamTuple,
)


def tuples(n):
    return [StreamTuple(tau=float(i), job="j", layer=i, payload={"x": i}) for i in range(n)]


def build_chain_query(sink, n=50):
    q = Query("chain")
    q.add_source("src", ListSource("src", tuples(n)))
    q.add_operator(
        "double", MapOperator("double", lambda t: t.derive(payload={"x": t.payload["x"] * 2})), "src"
    )
    q.add_operator("pos", FilterOperator("pos", lambda t: t.payload["x"] % 3 == 0), "double")
    q.add_sink("out", sink, "pos")
    return q


@pytest.mark.parametrize("mode", ["sync", "threaded"])
def test_chain_results_identical_across_modes(mode):
    sink = CollectingSink()
    report = StreamEngine(mode=mode).run(build_chain_query(sink))
    values = sorted(t.payload["x"] for t in sink.results)
    assert values == [x * 2 for x in range(50) if (x * 2) % 3 == 0]
    assert report.operator_stats["double"].tuples_in == 50


@pytest.mark.parametrize("mode", ["sync", "threaded"])
def test_join_and_aggregate_pipeline(mode):
    q = Query("jq")
    q.add_source("L", ListSource("L", tuples(20)))
    q.add_source("R", ListSource("R", tuples(20)))
    q.add_operator(
        "join",
        JoinOperator(
            "join",
            ws=0.0,
            group_by=lambda t: (t.job, t.layer),
            combiner=lambda l, r: l.derive(payload={"x": l.payload["x"] + r.payload["x"]}),
        ),
        ["L", "R"],
    )
    q.add_operator(
        "agg",
        AggregateOperator(
            "agg", ws=10.0, wa=10.0,
            fn=lambda k, s, e, ts: {"sum": sum(t.payload["x"] for t in ts)},
        ),
        "join",
    )
    sink = CollectingSink()
    q.add_sink("out", sink, "agg")
    StreamEngine(mode=mode).run(q)
    sums = sorted(t.payload["sum"] for t in sink.results)
    # joined payload x doubles each value; windows [0,10) and [10,20)
    assert sums == [sum(2 * x for x in range(10)), sum(2 * x for x in range(10, 20))]


@pytest.mark.parametrize("mode", ["sync", "threaded"])
def test_operator_error_propagates(mode):
    def boom(t):
        raise RuntimeError("user function failed")

    q = Query("err")
    q.add_source("src", ListSource("src", tuples(3)))
    q.add_operator("bad", MapOperator("bad", boom), "src")
    q.add_sink("out", CollectingSink(), "bad")
    with pytest.raises(OperatorError, match="bad"):
        StreamEngine(mode=mode).run(q)


def _specimen(t):
    return t.specimen


def test_parallel_results_match_serial():
    def build():
        q = Query("par")
        data = [
            StreamTuple(
                tau=float(i), job="j", layer=i, specimen=f"S{i % 5}", portion="p",
                payload={"x": i},
            )
            for i in range(100)
        ]
        q.add_source("src", ListSource("src", data))
        q.add_operator(
            "m",
            lambda: MapOperator("m", lambda t: t.derive(payload={"x": t.payload["x"] + 1})),
            "src",
            key_fn=_specimen,
            replicable=True,
        )
        sink = CollectingSink()
        q.add_sink("out", sink, "m")
        return q, sink

    q1, s1 = build()
    q4, s4 = build()
    StreamEngine(mode="threaded").run(q1, plan=PlanConfig(parallelism=1))
    report = StreamEngine(mode="threaded").run(q4, plan=PlanConfig(parallelism=4))
    assert {"m::0", "m::1", "m::2", "m::3"} <= set(report.operator_stats)
    assert sorted(t.payload["x"] for t in s1.results) == sorted(
        t.payload["x"] for t in s4.results
    )


def test_parallel_preserves_per_key_order():
    data = [
        StreamTuple(tau=float(i), job="j", layer=i, specimen=f"S{i % 3}", portion="p",
                    payload={"seq": i})
        for i in range(60)
    ]
    q = Query("order")
    q.add_source("src", ListSource("src", data))
    q.add_operator(
        "m", lambda: MapOperator("m", lambda t: t), "src", key_fn=_specimen,
        replicable=True,
    )
    sink = CollectingSink()
    q.add_sink("out", sink, "m")
    report = StreamEngine(mode="threaded").run(q, plan=PlanConfig(parallelism=3))
    assert {"m::0", "m::1", "m::2"} <= set(report.operator_stats)
    per_key: dict[str, list[int]] = {}
    for t in sink.results:
        per_key.setdefault(t.specimen, []).append(t.payload["seq"])
    for seqs in per_key.values():
        assert seqs == sorted(seqs)


def test_background_start_and_stop():
    def slow_source():
        for i in range(10_000):
            time.sleep(0.001)
            yield StreamTuple(tau=float(i), job="j", layer=i, payload={})

    q = Query("bg")
    q.add_source("src", IterableSource("src", slow_source()))
    sink = CollectingSink()
    q.add_sink("out", sink, "src")
    engine = StreamEngine(mode="threaded")
    engine.start(q)
    time.sleep(0.2)
    engine.stop(timeout=5.0)
    assert 0 < len(sink.results) < 10_000  # stopped mid-stream


def test_background_wait_for_natural_end():
    q = Query("bg2")
    q.add_source("src", ListSource("src", tuples(5)))
    sink = CollectingSink()
    q.add_sink("out", sink, "src")
    engine = StreamEngine(mode="threaded")
    engine.start(q)
    engine.wait(timeout=10.0)
    assert len(sink.results) == 5


def test_timed_out_wait_keeps_the_running_query():
    """A wait whose timeout expires first leaves the query running and
    owned: running() stays true, a second wait joins it and stop() ends
    every node thread."""
    import threading

    def slow_source():
        for i in range(10_000):
            time.sleep(0.001)
            yield StreamTuple(tau=float(i), job="j", layer=i, payload={})

    q = Query("bg3")
    q.add_source("src", IterableSource("src", slow_source()))
    q.add_sink("out", CollectingSink(), "src")
    engine = StreamEngine(mode="threaded")
    engine.start(q)
    assert engine.wait(timeout=0.05) is None
    assert engine.running()
    assert engine.wait(timeout=0.05) is None
    engine.stop(timeout=5.0)
    assert not engine.running()
    alive = {t.name for t in threading.enumerate()}
    assert not alive & {"spe-src", "spe-out"}


def test_sync_mode_cannot_background():
    from repro.spe import EngineStateError

    engine = StreamEngine(mode="sync")
    q = Query("x")
    q.add_source("src", ListSource("src", tuples(1)))
    q.add_sink("out", CollectingSink(), "src")
    with pytest.raises(EngineStateError):
        engine.start(q)


def test_sink_latency_recorded():
    sink = CollectingSink()
    report = StreamEngine(mode="threaded").run(build_chain_query(sink, n=30))
    samples = report.latency_samples()
    assert len(samples) == len(sink.results)
    assert all(s >= 0 for s in samples)
    summary = report.latency_summary()
    assert summary.minimum <= summary.median <= summary.maximum


def test_sync_scheduler_survives_emission_beyond_stream_capacity():
    """One join step can emit more pairs than a bounded stream holds.

    The sync scheduler is single-threaded: nothing drains a full output
    stream while an operator is still emitting into it, so a blocking put
    would deadlock the whole run. Capacity 4 with a 30x30 cross join
    (900 pairs through one step) deadlocked before puts went unbounded.
    """
    n = 30
    q = Query("tightjoin", default_capacity=4)
    q.add_source("L", ListSource("L", tuples(n)))
    q.add_source(
        "R",
        ListSource(
            "R",
            [
                StreamTuple(tau=float(i), job="j", layer=i, payload={"y": i})
                for i in range(n)
            ],
        ),
    )
    q.add_operator(
        "join",
        JoinOperator(
            "join", ws=float(n),  # every L matches every R
            combiner=lambda l, r: l.derive(
                payload={"x": l.payload["x"], "y": r.payload["y"]}
            ),
        ),
        ["L", "R"],
    )
    sink = CollectingSink()
    q.add_sink("out", sink, "join")
    from repro.spe.scheduler import SynchronousScheduler

    nodes = q.build()
    SynchronousScheduler().run(nodes)
    assert len(sink.results) == n * n
    out_stream = next(node for node in nodes if node.kind == "sink").inputs[0]
    assert out_stream.high_watermark > out_stream.capacity  # overshoot happened


def test_source_runs_cross_the_edge_as_one_batch_per_destination():
    """A source may yield a whole run; the threaded scheduler ships it as
    one TupleBatch per destination stream (two consumers get a batch
    each), single tuples and order untouched."""
    from repro.spe import Operator, ThreadedScheduler
    from repro.spe.source import Source
    from repro.spe.stream import TupleBatch

    data = tuples(7)

    class FramedSource(Source):
        def __iter__(self):
            yield TupleBatch(data[:4])
            yield data[4]
            yield TupleBatch(data[5:])

    class RunLengths(Operator):
        num_inputs = 1

        def __init__(self, name):
            super().__init__(name)
            self.lengths = []

        def process(self, input_index, t):
            return self.process_many([t])

        def process_many(self, batch, input_index=0):
            self.lengths.append(len(batch))
            return list(batch)

    q = Query("runs")
    q.add_source("src", FramedSource("src"))
    left, right = RunLengths("left"), RunLengths("right")
    sinks = CollectingSink("l"), CollectingSink("r")
    q.add_operator("left", left, "src")
    q.add_operator("right", right, "src")
    q.add_sink("out-l", sinks[0], "left")
    q.add_sink("out-r", sinks[1], "right")
    stats = ThreadedScheduler().run(q.build())
    assert stats["src"].tuples_out == 7
    for op, sink in zip((left, right), sinks):
        assert sum(op.lengths) == 7 and 4 in op.lengths  # the run arrived whole
        assert [t.layer for t in sink.results] == list(range(7))


@pytest.mark.parametrize("keyed", [False, True])
def test_both_schedulers_send_what_a_source_yields_alike(monkeypatch, keyed):
    """A source yielding a tuple, a barrier and a run, with obs on: both
    schedulers hand every consumer the same entries in the same order —
    the run as one batch (split by the router when keyed), taken in one
    ``process_many`` call — and count the run's rows as tuples out."""
    from repro.obs import ObsConfig, ObsContext
    from repro.spe import Operator, SynchronousScheduler, ThreadedScheduler
    from repro.spe.barrier import CheckpointBarrier, is_barrier
    from repro.spe.scheduler import NodeExecutor
    from repro.spe.source import Source
    from repro.spe.stream import END_OF_STREAM, TupleBatch

    data = tuples(5)

    class MixedSource(Source):
        def __iter__(self):
            yield data[0]
            yield CheckpointBarrier(7)
            yield TupleBatch(data[1:])

    class Calls(Operator):
        num_inputs = 1

        def __init__(self, name):
            super().__init__(name)
            self.calls = []

        def process(self, input_index, t):
            return self.process_many([t])

        def process_many(self, batch, input_index=0):
            self.calls.append([t.layer for t in batch])
            return list(batch)

    class ByParity:
        def route(self, t):
            return t.layer % 2

    def entry(item):
        if type(item) is TupleBatch:
            return ("run", [t.layer for t in item])
        if is_barrier(item):
            return ("barrier", item.epoch)
        if item is END_OF_STREAM:
            return ("eos",)
        return ("tuple", item.layer)

    entries = {"op0": [], "op1": []}
    handle = NodeExecutor.handle

    def recording(self, input_index, item):
        if self.node.name in entries:
            entries[self.node.name].append(entry(item))
        return handle(self, input_index, item)

    monkeypatch.setattr(NodeExecutor, "handle", recording)

    def run(scheduler):
        for seen in entries.values():
            seen.clear()
        q = Query("mixed")
        q.add_source("src", MixedSource("src"))
        ops = [Calls("op0"), Calls("op1")]
        for op in ops:
            q.add_operator(op.name, op, "src")
            q.add_sink(f"out-{op.name}", CollectingSink(), op.name)
        nodes = q.build()
        if keyed:
            next(node for node in nodes if node.kind == "source").router = ByParity()
        stats = scheduler.run(nodes)
        return (
            {name: list(seen) for name, seen in entries.items()},
            [op.calls for op in ops],
            stats["src"].tuples_out,
        )

    config = ObsConfig(trace_sample_every=1, qos_deadline_s=None)
    sync = run(SynchronousScheduler(obs=ObsContext(config)))
    threaded = run(ThreadedScheduler(obs=ObsContext(config)))
    assert sync == threaded
    got, calls, tuples_out = sync
    assert tuples_out == 5
    if keyed:
        assert got == {
            "op0": [("tuple", 0), ("barrier", 7), ("run", [2, 4]), ("eos",)],
            "op1": [("barrier", 7), ("run", [1, 3]), ("eos",)],
        }
        assert calls == [[[0], [2, 4]], [[1, 3]]]
    else:
        run_of_four = [("tuple", 0), ("barrier", 7), ("run", [1, 2, 3, 4]), ("eos",)]
        assert got == {"op0": run_of_four, "op1": run_of_four}
        assert calls == [[[0], [1, 2, 3, 4]]] * 2


def _launch_alone(q, name, entries, plan, router=None):
    """Queue ``entries`` and EOS on node ``name``'s input, then run that node
    alone on the one launch path (its consumers never run)."""
    from repro.spe.engine import join, launch
    from repro.spe.stream import END_OF_STREAM

    node = next(n for n in q.build() if n.name == name)
    node.router = router
    for item in [*entries, END_OF_STREAM]:
        node.inputs[0].put(item)
    assert join(*launch([node], plan), timeout=10.0), "the node did not finish"


@pytest.mark.parametrize("keyed", [False, True])
def test_a_planned_operator_sends_its_run_whole_before_handle_returns(
    monkeypatch, keyed
):
    """With a plan, the three tuples an operator returns for one run are on
    its output edges when ``handle`` returns: one ``TupleBatch`` per
    destination, split by the router when keyed."""
    from repro.spe import Operator
    from repro.spe.scheduler import NodeExecutor
    from repro.spe.stream import TupleBatch

    class Triple(Operator):
        num_inputs = 1

        def process(self, input_index, t):
            return [t.derive(layer=i) for i in range(3)]

    class ByParity:
        def route(self, t):
            return t.layer % 2

    after_handle = []
    handle = NodeExecutor.handle

    def recording(self, input_index, item):
        handle(self, input_index, item)
        if isinstance(item, StreamTuple):
            after_handle.append([
                [(type(e), [t.layer for t in e]) for e in s.drain()]
                for s in self.node.outputs
            ])

    monkeypatch.setattr(NodeExecutor, "handle", recording)
    q = Query("triple")
    q.add_source("src", ListSource("src", []))
    q.add_operator("op", Triple("op"), "src")
    q.add_sink("a", CollectingSink("a"), "op")
    if keyed:
        q.add_sink("b", CollectingSink("b"), "op")
    _launch_alone(q, "op", tuples(1), PlanConfig(), ByParity() if keyed else None)
    if keyed:
        assert after_handle == [[[(TupleBatch, [0, 2])], [(TupleBatch, [1])]]]
    else:
        assert after_handle == [[[(TupleBatch, [0, 1, 2])]]]


@pytest.mark.parametrize(
    "plan, calls", [(PlanConfig(), [5]), (None, [1] * 5)], ids=["plan", "plan-off"]
)
def test_queued_entries_reach_process_many_as_one_run_with_a_plan(plan, calls):
    """Five data entries queued on one input: with a plan one drain hands
    them over as one 5-row ``process_many`` call; without one, each entry
    is its own call, the graph as declared."""
    from repro.spe import Operator

    class Lengths(Operator):
        num_inputs = 1

        def __init__(self, name):
            super().__init__(name)
            self.lengths = []

        def process(self, input_index, t):
            return self.process_many([t])

        def process_many(self, batch, input_index=0):
            self.lengths.append(len(batch))
            return []

    op = Lengths("op")
    q = Query("queued")
    q.add_source("src", ListSource("src", []))
    q.add_operator("op", op, "src")
    q.add_sink("out", CollectingSink(), "op")
    _launch_alone(q, "op", tuples(5), plan)
    assert op.lengths == calls
