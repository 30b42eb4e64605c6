"""Stress and failure injection for the threaded engine.

These tests target the failure modes thread-per-operator engines actually
exhibit: back-pressure deadlocks under tiny queue capacities, fan-out
expansion bursts, mid-stream operator crashes, and join memory growth.
"""

import threading
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
    NullSink,
    OperatorError,
    Query,
    StreamEngine,
    StreamTuple,
)


def tuples(n, job="j"):
    return [StreamTuple(tau=float(i), job=job, layer=i, payload={"x": i}) for i in range(n)]


def test_tiny_capacity_does_not_deadlock():
    """Capacity 2 queues + 1->50 expansion: back-pressure must not wedge."""
    q = Query("tiny", default_capacity=2)
    q.add_source("src", ListSource("src", tuples(40)))
    q.add_operator(
        "expand",
        MapOperator("expand", lambda t: [t.derive(payload={"i": i}) for i in range(50)]),
        "src",
    )
    sink = CollectingSink()
    q.add_sink("out", sink, "expand")
    report = StreamEngine(mode="threaded").run(q)
    assert len(sink.results) == 40 * 50
    assert report.operator_stats["expand"].tuples_out == 2000


def test_deep_chain_under_pressure():
    q = Query("deep", default_capacity=4)
    q.add_source("src", ListSource("src", tuples(200)))
    upstream = "src"
    for depth in range(12):
        name = f"hop{depth}"
        q.add_operator(
            name,
            MapOperator(name, lambda t: t.derive(payload={"x": t.payload["x"] + 1})),
            upstream,
        )
        upstream = name
    sink = CollectingSink()
    q.add_sink("out", sink, upstream)
    StreamEngine(mode="threaded").run(q)
    assert sorted(t.payload["x"] for t in sink.results) == [x + 12 for x in range(200)]


def test_crash_in_middle_operator_stops_whole_query():
    def bomb(t):
        if t.payload["x"] == 137:
            raise ValueError("injected fault")
        return t

    q = Query("crash")
    q.add_source("src", ListSource("src", tuples(1000)))
    q.add_operator("pre", MapOperator("pre", lambda t: t), "src")
    q.add_operator("bomb", MapOperator("bomb", bomb), "pre")
    q.add_operator("post", MapOperator("post", lambda t: t), "bomb")
    q.add_sink("out", NullSink(), "post")
    engine = StreamEngine(mode="threaded")
    started = time.monotonic()
    with pytest.raises(OperatorError, match="bomb"):
        engine.run(q)
    assert time.monotonic() - started < 30  # fails fast, no hang


def test_crash_in_sink_callback_propagates():
    from repro.spe import CallbackSink

    def bad_consumer(t):
        raise RuntimeError("sink exploded")

    q = Query("sinkcrash")
    q.add_source("src", ListSource("src", tuples(5)))
    q.add_sink("out", CallbackSink("out", bad_consumer), "src")
    with pytest.raises(RuntimeError):
        StreamEngine(mode="threaded").run(q)


def test_join_buffers_bounded_by_watermark():
    """A long in-order run must not accumulate unbounded join state."""
    n = 3000
    join = JoinOperator(
        "join", ws=2.0, group_by=lambda t: t.job,
        combiner=lambda l, r: l.derive(payload={"x": l.payload["x"] + r.payload["y"]}),
    )
    q = Query("joinmem", default_capacity=256)
    q.add_source("L", ListSource("L", tuples(n)))
    q.add_source(
        "R",
        ListSource(
            "R",
            [StreamTuple(tau=float(i), job="j", layer=i, payload={"y": i}) for i in range(n)],
        ),
    )
    q.add_operator("join", join, ["L", "R"])
    q.add_sink("out", NullSink(), "join")
    StreamEngine(mode="threaded").run(q)
    # watermark eviction: only the trailing window may remain
    assert join.buffered < 200


def test_many_group_by_keys_in_aggregate():
    n = 2000
    data = [
        StreamTuple(tau=float(i), job=f"job-{i % 100}", layer=i, payload={"x": 1})
        for i in range(n)
    ]
    q = Query("groups")
    q.add_source("src", ListSource("src", data))
    q.add_operator(
        "agg",
        AggregateOperator(
            "agg", ws=100.0, wa=100.0,
            fn=lambda k, s, e, ts: {"n": len(ts)},
            group_by=lambda t: t.job,
        ),
        "src",
    )
    sink = CollectingSink()
    q.add_sink("out", sink, "agg")
    StreamEngine(mode="threaded").run(q)
    assert sum(t.payload["n"] for t in sink.results) == n


def test_slow_consumer_throttles_fast_source():
    """End-to-end back-pressure: a slow sink must pace the source."""
    consumed = []

    def slow(t):
        time.sleep(0.002)
        consumed.append(t)

    from repro.spe import CallbackSink

    q = Query("slow", default_capacity=8)
    q.add_source("src", ListSource("src", tuples(100)))
    q.add_sink("out", CallbackSink("out", slow), "src")
    StreamEngine(mode="threaded").run(q)
    assert len(consumed) == 100


def test_concurrent_engines_do_not_interfere():
    results = {}

    def run_one(name):
        q = Query(name)
        q.add_source("src", ListSource("src", tuples(300, job=name)))
        q.add_operator(
            "m", MapOperator("m", lambda t: t.derive(payload={"x": t.payload["x"] * 2})),
            "src",
        )
        sink = CollectingSink()
        q.add_sink("out", sink, "m")
        StreamEngine(mode="threaded").run(q)
        results[name] = sorted(t.payload["x"] for t in sink.results)

    threads = [threading.Thread(target=run_one, args=(f"q{i}",)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    expected = [x * 2 for x in range(300)]
    assert all(results[f"q{i}"] == expected for i in range(4))


def test_stop_releases_blocked_source():
    """stop() must unblock a source stuck on a full queue."""

    def infinite():
        i = 0
        while True:
            yield StreamTuple(tau=float(i), job="j", layer=i, payload={})
            i += 1

    q = Query("blocked", default_capacity=2)
    q.add_source("src", IterableSource("src", infinite()))
    q.add_operator(
        "slow", MapOperator("slow", lambda t: (time.sleep(0.01), t)[1]), "src"
    )
    q.add_sink("out", NullSink(), "slow")
    engine = StreamEngine(mode="threaded")
    engine.start(q)
    time.sleep(0.2)
    started = time.monotonic()
    engine.stop(timeout=10)
    assert time.monotonic() - started < 10


def test_filter_heavy_selectivity():
    q = Query("selective")
    q.add_source("src", ListSource("src", tuples(5000)))
    fil = FilterOperator("f", lambda t: t.payload["x"] % 1000 == 0)
    q.add_operator("f", fil, "src")
    sink = CollectingSink()
    q.add_sink("out", sink, "f")
    StreamEngine(mode="threaded").run(q)
    assert len(sink.results) == 5
    assert fil.dropped == 4995
