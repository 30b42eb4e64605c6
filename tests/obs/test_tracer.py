"""Sampled tracing: stamping, span recording, FIFO eviction."""

import time

import pytest

from repro.obs import ObsConfig, ObsContext, Tracer
from repro.obs.tracer import MAX_TRACES
from repro.spe import CollectingSink, ListSource, MapOperator, Query, StreamEngine
from repro.spe.tuples import StreamTuple


def _tuple(layer=0):
    return StreamTuple(tau=float(layer), job="j", layer=layer, payload={})


class TestSampling:
    def test_every_nth_tuple_is_stamped(self):
        tracer = Tracer(sample_every=4)
        stamped = []
        for i in range(10):
            t = _tuple(i)
            tracer.at_source("src", t)
            if t.trace_id is not None:
                stamped.append(i)
        assert stamped == [0, 4, 8]
        assert tracer.sampled == 3

    def test_trace_id_encodes_source_and_seq(self):
        tracer = Tracer(sample_every=1)
        t = _tuple()
        tracer.at_source("source:OT", t)
        assert t.trace_id == "source:OT#0"

    def test_sources_sample_independently(self):
        tracer = Tracer(sample_every=2)
        for i in range(4):
            tracer.at_source("a", _tuple(i))
        tracer.at_source("b", _tuple(0))
        assert sorted(tracer.trace_ids()) == ["a#0", "a#2", "b#0"]

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            Tracer(sample_every=0)


class TestSpans:
    def test_spans_accumulate_in_order(self):
        tracer = Tracer(sample_every=1)
        t = _tuple(layer=3)
        tracer.at_source("src", t)
        tracer.record(t.trace_id, "fuse", "operator", 0.01, t)
        tracer.record(t.trace_id, "sink", "sink", 0.002, t)
        trace = tracer.trace(t.trace_id)
        assert trace.nodes == ["src", "fuse", "sink"]
        assert trace.total_duration_s == pytest.approx(0.012)
        assert trace.spans[1].layer == 3
        assert "3 spans" in trace.format()

    def test_derived_tuples_carry_the_trace_id(self):
        tracer = Tracer(sample_every=1)
        t = _tuple()
        tracer.at_source("src", t)
        child = t.derive(payload={"x": 1})
        assert child.trace_id == t.trace_id

    def test_fused_tuple_inherits_either_side(self):
        left, right = _tuple(), _tuple()
        left.trace_id = "a#0"
        assert StreamTuple.fused(left, right).trace_id == "a#0"
        left.trace_id = None
        right.trace_id = "b#0"
        assert StreamTuple.fused(left, right).trace_id == "b#0"


class TestSpanTiming:
    def test_wall_time_is_the_start_of_the_work(self):
        """Regression: ``record`` used to stamp ``time.time()`` after the
        work, so ``elapsed_s`` overstated every trace by its last span."""
        tracer = Tracer(sample_every=1)
        tracer.record("a", "op", "operator", 0.25, started_wall=100.0)
        tracer.record("a", "sink", "sink", 0.5, started_wall=100.25)
        trace = tracer.trace("a")
        assert [s.wall_time for s in trace.spans] == [100.0, 100.25]
        assert trace.elapsed_s() == pytest.approx(0.75)

    def test_scheduler_stamps_the_start_not_the_end(self):
        work_s = 0.2

        def slow(t):
            time.sleep(work_s)
            return t

        q = Query()
        q.add_source("src", ListSource("src", [_tuple()]))
        q.add_operator("slow", MapOperator("slow", slow), "src")
        q.add_sink("out", CollectingSink(), "slow")
        obs = ObsContext(ObsConfig(trace_sample_every=1, qos_deadline_s=None))
        StreamEngine(mode="sync").run(q, obs=obs)
        finished = time.time()
        (trace,) = obs.tracer.traces()
        assert trace.nodes == ["src", "slow", "out"]
        span = trace.spans[1]
        assert span.duration_s >= work_s
        assert span.wall_time + span.duration_s <= finished + 0.005
        assert trace.elapsed_s() <= finished - trace.spans[0].wall_time + 0.005

    def test_untimed_callers_get_now_minus_duration(self):
        tracer = Tracer(sample_every=1)
        before = time.time()
        tracer.record("a", "op", "operator", 2.0)
        span = tracer.trace("a").spans[0]
        assert before - 2.0 <= span.wall_time <= time.time() - 2.0


class TestRuns:
    def _run(self):
        ts = [_tuple(layer=i // 2) for i in range(6)]
        for t, trace_id in zip(ts, ["a", "a", None, "b", "a", None]):
            t.trace_id = trace_id
        return ts

    def test_one_span_per_distinct_trace_id(self):
        tracer = Tracer(sample_every=1)
        tracer.record_run("fused", "operator", 50.0, 0.6, self._run())
        a, b = tracer.trace("a").spans, tracer.trace("b").spans
        assert len(a) == len(b) == 1
        assert (a[0].tuples, b[0].tuples) == (3, 1)
        # the run's duration is shared by tuple count, untraced rows included
        assert a[0].duration_s == pytest.approx(0.3)
        assert b[0].duration_s == pytest.approx(0.1)
        assert a[0].wall_time == b[0].wall_time == 50.0
        # span metadata comes from the trace's first tuple in the run
        assert (a[0].layer, b[0].layer) == (0, 1)

    def test_untraced_run_records_nothing(self):
        tracer = Tracer(sample_every=1)
        ts = [_tuple(i) for i in range(4)]
        tracer.record_run("n", "operator", 1.0, 0.1, ts)
        assert len(tracer) == 0

    def test_run_spans_respect_eviction(self):
        tracer = Tracer(sample_every=1)
        ts = [_tuple(i) for i in range(MAX_TRACES + 1)]
        for i, t in enumerate(ts):
            t.trace_id = f"t{i}"
        tracer.record_run("n", "operator", 1.0, 0.3, ts)
        assert tracer.trace_ids() == [f"t{i}" for i in range(1, MAX_TRACES + 1)]


class TestEviction:
    def test_oldest_trace_evicted_first(self):
        tracer = Tracer(sample_every=1)
        for i in range(MAX_TRACES + 1):
            tracer.record(f"t{i}", "n", "operator", 0.0)
        assert tracer.trace_ids() == [f"t{i}" for i in range(1, MAX_TRACES + 1)]
        assert tracer.trace("t0") is None
        assert len(tracer) == MAX_TRACES

    def test_recording_into_live_trace_does_not_evict(self):
        tracer = Tracer(sample_every=1)
        for i in range(MAX_TRACES):
            tracer.record(f"t{i}", "n1", "operator", 0.0)
        tracer.record("t0", "n2", "operator", 0.0)
        assert len(tracer) == MAX_TRACES
        assert tracer.trace("t0").nodes == ["n1", "n2"]
