"""Snapshot/restore roundtrips for every stateful component."""

import numpy as np
import pytest

from repro.analysis.adaptive import AdaptiveThresholdLearner
from repro.clustering.incremental import LayerWindowClusterer
from repro.core.operators import CorrelateEventsOperator, DetectEventOperator
from repro.spe import CollectingSink, StreamTuple
from repro.spe.metrics import LatencyRecorder
from repro.spe.operators.aggregate import AggregateOperator
from repro.spe.operators.join import JoinOperator


def t(tau, layer=0, specimen="s1", payload=None):
    return StreamTuple(
        tau=float(tau), job="J", layer=layer, specimen=specimen,
        payload=payload or {"x": tau}, ingest_time=0.0,
    )


def test_aggregate_roundtrip():
    fn = lambda key, start, end, tuples: {"n": len(tuples)}
    a = AggregateOperator("a", ws=4.0, wa=2.0, fn=fn)
    for i in range(5):
        a.process(0, t(i))
    state = a.snapshot_state()
    b = AggregateOperator("b", ws=4.0, wa=2.0, fn=fn)
    b.restore_state(state)
    assert b.open_windows == a.open_windows
    # both drains must now produce identical remaining windows
    out_a = [x.payload for x in a.process(0, t(9))] + [x.payload for x in a.on_close()]
    out_b = [x.payload for x in b.process(0, t(9))] + [x.payload for x in b.on_close()]
    assert out_a == out_b


def test_join_roundtrip():
    make = lambda: JoinOperator(
        "j", ws=0.0, group_by=lambda x: x.layer,
        combiner=lambda l, r: l.derive(payload={"s": l.tau + r.tau}),
    )
    a = make()
    for i in range(4):
        a.process(0, t(i, layer=i))
    a.process(1, t(0, layer=0))
    state = a.snapshot_state()
    b = make()
    b.restore_state(state)
    out = b.process(1, t(2, layer=2))
    assert [x.payload["s"] for x in out] == [4.0]


def test_correlate_events_roundtrip():
    calls = []

    def fn(job, layer, specimen, events):
        calls.append((job, layer, specimen, len(events)))
        return {"n": len(events)}

    a = CorrelateEventsOperator("c", window_layers=3, fn=fn)
    for layer in range(3):
        for k in range(2):
            a.process(0, t(layer * 10 + k, layer=layer))
    state = a.snapshot_state()
    b = CorrelateEventsOperator("c2", window_layers=3, fn=fn)
    b.restore_state(state)
    from repro.core.punctuation import make_punctuation

    punct = make_punctuation(t(99, layer=2), "s1")
    out_a = a.process(0, punct)
    out_b = b.process(0, punct)
    assert [x.payload for x in out_a] == [x.payload for x in out_b] == [{"n": 6}]
    assert b.triggers == a.triggers


def test_detect_event_roundtrip():
    a = DetectEventOperator("d", fn=lambda x: [x])
    for i in range(5):
        a.process(0, t(i))
    b = DetectEventOperator("d2", fn=lambda x: [x])
    b.restore_state(a.snapshot_state())
    assert b.events_out == a.events_out


def _thresholds():
    from repro.analysis.thresholds import ThermalThresholds

    return ThermalThresholds(
        very_cold_below=90.0, cold_below=110.0, warm_above=150.0,
        very_warm_above=170.0,
    )


def test_adaptive_learner_roundtrip():
    a = AdaptiveThresholdLearner(_thresholds(), alpha=0.2)
    rng = np.random.default_rng(3)
    for _ in range(20):
        a.update(rng.normal(130.0, 5.0, size=64))
    b = AdaptiveThresholdLearner(_thresholds(), alpha=0.2)
    b.restore_state(a.snapshot_state())
    frame = rng.normal(128.0, 5.0, size=64)
    a.update(frame)
    b.update(frame)
    assert a.snapshot_state() == b.snapshot_state()
    assert b.current == a.current


def test_window_clusterer_roundtrip():
    make = lambda: LayerWindowClusterer(
        window_layers=3, eps=1.5, min_samples=2, layer_thickness_mm=0.04
    )
    a = make()
    rng = np.random.default_rng(5)
    for layer in range(4):
        a.observe_layer(layer, rng.uniform(0, 10, size=(6, 2)))
    state = a.snapshot_state()
    b = make()
    b.restore_state(state)
    pts = rng.uniform(0, 10, size=(5, 2))
    ra = a.observe_layer(4, pts)
    rb = b.observe_layer(4, pts)
    np.testing.assert_array_equal(ra.labels, rb.labels)
    np.testing.assert_array_equal(ra.points, rb.points)
    assert ra.num_clusters == rb.num_clusters


def test_latency_recorder_roundtrip():
    a = LatencyRecorder()
    for s in (0.1, 0.2, 0.3):
        a.record(s)
    b = LatencyRecorder()
    b.restore(a.snapshot())
    assert b.samples() == [0.1, 0.2, 0.3]


def test_collecting_sink_roundtrip():
    a = CollectingSink("s")
    for i in range(3):
        a.accept(t(i))
    state = a.snapshot_state()
    b = CollectingSink("s")
    b.restore_state(state)
    assert [x.tau for x in b.results] == [0.0, 1.0, 2.0]
    assert b.latency.samples() == a.latency.samples()


def test_stateless_operator_snapshots_none():
    from repro.spe import FilterOperator, MapOperator

    assert MapOperator("m", lambda x: x).snapshot_state() is None
    # FilterOperator counts drops -> stateful
    f = FilterOperator("f", lambda x: True)
    assert isinstance(f.snapshot_state(), dict)
