"""``correlateEvents`` evaluates a run's windows in one batch.

``CorrelateEventsOperator.process_many`` fixes each punctuation's window at
its stream position and hands the run's windows to
``DBSCANCorrelator.correlate_many`` in one call. Held here to two oracles:
the per-trigger correlator kept verbatim in ``correlator_oracle`` (equal
payloads *and* equal kept windows: points, pair arrays in order, layer
runs) and the sequential BFS of ``tests/clustering/bfs_oracle.py``.
"""

from __future__ import annotations

import copy
import sys
import threading

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import (
    DeployConfig,
    Strata,
    UseCaseConfig,
    build_use_case,
    calibrate_job,
    specimen_regions_px,
)
from repro.core.functions import DBSCANCorrelator
from repro.core.operators import CorrelateEventsOperator
from repro.core.punctuation import is_punctuation, make_punctuation
from repro.kvstore import MemoryStore
from repro.spe import PlanConfig, StreamTuple
from repro.thermal import ReconstructLaserParameters, ThermalForecastCorrelator
from repro.thermal.model import LaserCalibration, store_laser_calibration
from tests.conftest import TEST_IMAGE_PX
from tests.core.correlator_oracle import PerTriggerCorrelator, window_state
from tests.core.test_correlator_window import SETTINGS, blob, comparable, event, oracle_payload
from tests.recovery.test_crash_recovery import exact_payloads

SPECIMENS = [f"S{i:02d}" for i in range(12)]


def punct(layer, specimen="S", job="J"):
    return make_punctuation(StreamTuple(tau=float(layer), job=job, layer=layer), specimen)


def restored(op, deep):
    """``op`` after a checkpoint and restore; ``deep``: a recovered process,
    whose events are new objects."""
    state = op.snapshot_state()
    if deep:
        state = copy.deepcopy(state)
    fresh = CorrelateEventsOperator(op.name, op._window, op._fn)
    fresh.restore_state(state)
    return fresh


@pytest.fixture()
def batches(monkeypatch):
    """Every ``DBSCANCorrelator.correlate_many`` call made while the test
    runs, as its requests' (job, layer, specimen, event count)."""
    calls = []
    real = DBSCANCorrelator.correlate_many

    def counting(self, requests):
        calls.append([(job, layer, spec, len(evs)) for job, layer, spec, evs in requests])
        return real(self, requests)

    monkeypatch.setattr(DBSCANCorrelator, "correlate_many", counting)
    return calls


# -- the batch against both oracles ---------------------------------------------

#: one specimen's events in a layer: cells on a small grid, so that most
#: windows hold clusters (eps is one cell) and some hold several
cells = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=8)

#: what happens next: a layer (events for each specimen, possibly none, then
#: every specimen's punctuation), late events for one specimen, one lone
#: punctuation (possibly going backwards), or a checkpoint and restore
steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("layer"), st.integers(-2, 1), st.lists(cells, min_size=12, max_size=12)
        ),
        st.tuples(st.just("late"), st.integers(0, 11), st.integers(-4, 0), cells),
        st.tuples(st.just("punctuation"), st.integers(0, 11), st.integers(-3, 1)),
        st.tuples(st.just("restore"), st.booleans()),
    ),
    min_size=1,
    max_size=12,
)


def stream(steps, specimens):
    """The tuples the steps produce; a restore is ``("restore", deep)``."""
    items = []
    newest = 4
    for step in steps:
        if step[0] == "restore":
            items.append(step)
            continue
        if step[0] == "layer":
            _, offset, per_specimen = step
            layer = max(0, newest + offset)
            newest = max(newest, layer)
            for specimen, xy in zip(SPECIMENS[:specimens], per_specimen):
                items.extend(event(layer, 2 * x, 2 * y, specimen) for x, y in xy)
            items.extend(punct(layer, specimen) for specimen in SPECIMENS[:specimens])
        elif step[0] == "late":
            _, index, offset, xy = step
            layer = max(0, newest + offset)
            specimen = SPECIMENS[index % specimens]
            items.extend(event(layer, 2 * x, 2 * y, specimen) for x, y in xy)
        else:
            _, index, offset = step
            layer = max(0, newest + offset)
            newest = max(newest, layer)
            items.append(punct(layer, SPECIMENS[index % specimens]))
    return items


def runs(items, cuts):
    """Split at every cut and around every restore: lists of tuples, and
    restore markers between them."""
    out, run = [], []
    for item, cut in zip(items, cuts):
        if isinstance(item, tuple):
            if run:
                out.append(run)
                run = []
            out.append(item)
            continue
        run.append(item)
        if cut:
            out.append(run)
            run = []
    if run:
        out.append(run)
    return out


@given(
    steps=steps,
    specimens=st.integers(1, 12),
    window_layers=st.integers(1, 4),
    min_volume=st.sampled_from([0.0, 1.0, 2.5]),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_batched_runs_equal_the_per_trigger_oracle_and_the_bfs(
    steps, specimens, window_layers, min_volume, data
):
    items = stream(steps, specimens)
    cuts = data.draw(st.lists(st.booleans(), min_size=len(items), max_size=len(items)))
    settings_ = dict(SETTINGS, min_volume_mm3=min_volume)
    batched = DBSCANCorrelator(**settings_)
    oracle = PerTriggerCorrelator(**settings_)
    seen = []

    def recording(job, layer, specimen, events):
        seen.append(list(events))
        return oracle(job, layer, specimen, events)

    batch_op = CorrelateEventsOperator("c", window_layers, batched)
    oracle_op = CorrelateEventsOperator("c", window_layers, recording)
    got, want = [], []
    for run in runs(items, cuts):
        if isinstance(run, tuple):
            batch_op = restored(batch_op, run[1])
            oracle_op = restored(oracle_op, run[1])
            continue
        got.extend(batch_op.process_many(run))
        for t in run:
            want.extend(oracle_op.process(0, t))
        assert window_state(batched) == window_state(oracle)
    assert len(got) == len(want) == len(seen)
    assert batch_op.triggers == oracle_op.triggers == len(seen)
    for mine, theirs, events in zip(got, want, seen):
        assert (mine.job, mine.layer, mine.specimen, mine.ingest_time) == (
            theirs.job, theirs.layer, theirs.specimen, theirs.ingest_time
        )
        assert comparable(mine.payload) == comparable(theirs.payload)
        assert comparable(mine.payload) == comparable(oracle_payload(events, min_volume))


def test_a_layers_specimens_with_and_without_events_in_one_batch(batches):
    """The Alg. 1 shape: a layer's events for some specimens, then every
    specimen's punctuation — one call, ids numbered per window."""
    batched = DBSCANCorrelator(**SETTINGS)
    oracle = PerTriggerCorrelator(**SETTINGS)
    batch_op = CorrelateEventsOperator("c", 3, batched)
    oracle_op = CorrelateEventsOperator("c", 3, oracle)
    for layer in range(4):
        run = []
        for i, specimen in enumerate(SPECIMENS):
            if i % 3:
                run.extend(
                    event(layer, 2 * (i + k % 3), 4 + 2 * (k // 3), specimen) for k in range(6)
                )
        run.extend(punct(layer, specimen) for specimen in SPECIMENS)
        got = batch_op.process_many(run)
        want = [out for t in run for out in oracle_op.process(0, t)]
        assert [comparable(t.payload) for t in got] == [comparable(t.payload) for t in want]
        assert window_state(batched) == window_state(oracle)
    assert [len(call) for call in batches] == [12] * 4
    # S02 is the batch's second window: its first cluster is still id 0
    assert got[2].payload["clusters"][0]["cluster_id"] == 0


# -- per-tuple semantics --------------------------------------------------------


def test_an_event_after_its_layers_punctuation_in_the_run_is_not_in_that_window():
    windows = []

    def positions(job, layer, specimen, events):
        windows.append((layer, [e.payload["center_x_px"] for e in events]))
        return {"n": len(events)}

    op = CorrelateEventsOperator("c", 3, positions)
    out = op.process_many([event(0, 2, 2), punct(0), event(0, 4, 2), punct(1)])
    assert windows == [(0, [2]), (1, [2, 4])]
    assert [t.payload["n"] for t in out] == [1, 2]


def test_an_events_ingest_time_counts_only_for_windows_after_it():
    op = CorrelateEventsOperator("c", 3, DBSCANCorrelator(**SETTINGS))
    first, late = event(0, 2, 2), event(0, 4, 2)
    first.ingest_time, late.ingest_time = 5.0, 50.0
    marks = [punct(0), punct(1)]
    for mark in marks:
        mark.ingest_time = 1.0
    out = op.process_many([first, marks[0], late, marks[1]])
    assert [t.ingest_time for t in out] == [5.0, 50.0]


def test_two_punctuations_for_one_group_in_one_run_give_two_windows_in_order(batches):
    op = CorrelateEventsOperator("c", 3, DBSCANCorrelator(**SETTINGS))
    out = op.process_many(blob(0, 4, 4) + [punct(0)] + blob(1, 4, 4) + [punct(1)])
    assert [(t.layer, t.payload["num_events"]) for t in out] == [(0, 5), (1, 10)]
    assert batches == [[("J", 0, "S", 5)], [("J", 1, "S", 10)]]


def test_triggers_are_counted_per_punctuation():
    op = CorrelateEventsOperator("c", 2, DBSCANCorrelator(**SETTINGS))
    run = [punct(layer, specimen) for layer in range(3) for specimen in SPECIMENS[:5]]
    op.process_many(blob(0, 4, 4) + run[:7])
    op.process_many(run[7:])
    op.process(0, punct(2, "S"))
    assert op.triggers == 16
    assert op.stats_extra() == {"correlation_triggers_total": 16}


# -- call counting ---------------------------------------------------------------


def test_one_batch_call_per_run_of_distinct_group_punctuations(batches):
    op = CorrelateEventsOperator("c", 3, DBSCANCorrelator(**SETTINGS))
    layer = lambda n: [punct(n, specimen) for specimen in SPECIMENS]  # noqa: E731
    op.process_many(layer(0))
    assert [len(call) for call in batches] == [12]
    # two layers in one run: the second layer's first punctuation repeats
    # a waiting group, so the first layer is evaluated first
    op.process_many(layer(1) + layer(2))
    assert [len(call) for call in batches] == [12, 12, 12]
    # a run cut mid-layer: each part is one call
    op.process_many(layer(3)[:5])
    op.process_many(layer(3)[5:])
    assert [len(call) for call in batches] == [12, 12, 12, 5, 7]
    # a run without punctuation calls nothing
    op.process_many(blob(4, 4, 4))
    assert len(batches) == 5
    # other jobs are other groups
    op.process_many([punct(5, "S", job="A"), punct(5, "S", job="B")])
    assert batches[-1] == [("A", 5, "S", 0), ("B", 5, "S", 0)]


def test_a_call_is_the_one_request_batch(batches):
    correlator = DBSCANCorrelator(**SETTINGS)
    payload = correlator("J", 0, "S", blob(0, 4, 4))
    assert batches == [[("J", 0, "S", 5)]]
    assert payload["num_clusters"] == 1


def test_one_batch_may_not_hold_a_group_twice():
    correlator = DBSCANCorrelator(**SETTINGS)
    events = blob(0, 4, 4)
    with pytest.raises(ValueError, match="group"):
        correlator.correlate_many([("J", 0, "S", events), ("J", 1, "S", events)])


# -- plain correlate functions ----------------------------------------------------


def forecast_event(layer, specimen):
    rng = np.random.default_rng(layer * 31 + len(specimen))
    return StreamTuple(
        tau=float(layer), job="J", layer=layer, specimen=specimen,
        payload={
            "measured": rng.normal(10, 1, 4),
            "forecast": rng.normal(10, 1, 4),
            "forecast_mean": float(layer),
            "forecast_max": float(layer) + 1.0,
            "filtered_mean": 0.5,
            "innovation_rmse": 0.1,
            "overheat_cells": 0,
            "dropped_cells": 0,
        },
    )


def laser_event(layer, specimen):
    return StreamTuple(
        tau=float(layer), job="J", layer=layer, specimen=specimen,
        payload={
            "log_peak": 1.0 + 0.1 * layer,
            "log_dose": 2.0 - 0.05 * layer,
            "commanded_power_w": 280.0,
            "commanded_speed_mm_s": 1200.0,
            "melt_fraction": 0.3,
        },
    )


def plain_function(kind):
    """(correlate function, its class or None, event maker)."""
    if kind == "lambda":
        return (lambda job, layer, spec, events: {"n": len(events)}), None, forecast_event
    if kind == "forecast":
        return ThermalForecastCorrelator(), ThermalForecastCorrelator, forecast_event
    store = MemoryStore()
    store_laser_calibration(
        store, "J", LaserCalibration(weights=((5.0, 0.2, 0.1), (7.0, -0.1, 0.05)))
    )
    return ReconstructLaserParameters(store), ReconstructLaserParameters, laser_event


def plain_stream(make_event):
    items = []
    for layer in range(4):
        items.extend(make_event(layer, specimen) for specimen in ("A", "B", "C"))
        items.extend(punct(layer, specimen) for specimen in ("A", "B", "C"))
    # a late event, then a punctuation going backwards
    items += [make_event(1, "B"), punct(2, "B"), punct(4, "A")]
    return items


def comparable_payload(payload):
    return {
        key: value.tobytes() if isinstance(value, np.ndarray) else value
        for key, value in payload.items()
    }


@pytest.mark.parametrize("kind", ["lambda", "forecast", "reconstruct"])
def test_plain_functions_get_one_call_per_window_in_stream_order(kind, monkeypatch):
    fn, cls, make_event = plain_function(kind)
    assert getattr(fn, "correlate_many", None) is None
    calls = []
    if cls is None:
        inner = fn

        def fn(job, layer, specimen, events):
            calls.append((layer, specimen, [id(e) for e in events]))
            return inner(job, layer, specimen, events)
    else:
        real = cls.__call__

        def recording(self, job, layer, specimen, events):
            calls.append((layer, specimen, [id(e) for e in events]))
            return real(self, job, layer, specimen, events)

        monkeypatch.setattr(cls, "__call__", recording)
    items = plain_stream(make_event)
    one_by_one = CorrelateEventsOperator("c", 2, fn)
    want = [out for t in items for out in one_by_one.process(0, t)]
    per_tuple_calls, calls[:] = list(calls), []
    one_run = CorrelateEventsOperator("c", 2, fn)
    got = one_run.process_many(items)
    assert calls == per_tuple_calls
    assert len(calls) == sum(1 for t in items if is_punctuation(t))
    assert [(c[0], c[1]) for c in calls][-3:] == [(3, "C"), (2, "B"), (4, "A")]
    assert [(t.layer, t.specimen, comparable_payload(t.payload)) for t in got] == [
        (t.layer, t.specimen, comparable_payload(t.payload)) for t in want
    ]
    assert got, "the function returned nothing to compare"


# -- a correlator shared by replicas ---------------------------------------------


def _use_case(strata, layer_records, reference_images, test_job):
    config = UseCaseConfig(
        image_px=TEST_IMAGE_PX, cell_edge_px=5, window_layers=4, render_cluster_image=True
    )
    calibrate_job(
        strata.kv, test_job.job_id, reference_images, 5,
        regions=specimen_regions_px(test_job.specimens, TEST_IMAGE_PX),
    )
    return build_use_case(iter(layer_records), iter(layer_records), config, strata=strata)


def test_a_correlator_shared_by_three_replicas_diverges_nowhere(
    layer_records, reference_images, test_job, monkeypatch
):
    """Replicas of the correlate stage share the function object, so its
    batch method keeps nothing per call on it: three threads each batching
    their own specimens must report what the sync, plan-off graph does."""
    reference = Strata(engine_mode="sync")
    expected = _use_case(reference, layer_records, reference_images, test_job)
    reference.deploy(DeployConfig(plan=None))

    callers = set()
    real = DBSCANCorrelator.correlate_many

    def by_thread(self, requests):
        callers.add((id(self), threading.current_thread().name))
        return real(self, requests)

    monkeypatch.setattr(DBSCANCorrelator, "correlate_many", by_thread)
    strata = Strata(engine_mode="threaded")
    pipeline = _use_case(strata, layer_records, reference_images, test_job)
    plan = PlanConfig(parallelism=3)
    assert "correlate:out::2" in strata.explain(plan)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the replicas' batches finely
    try:
        strata.deploy(DeployConfig(plan=plan))
    finally:
        sys.setswitchinterval(interval)
    results = pipeline.sink.results
    assert len(results) == len(expected.sink.results) == len(layer_records) * 12
    assert exact_payloads(results) == exact_payloads(expected.sink.results)
    # one correlator object, batching on every replica's thread
    assert {obj for obj, _ in callers} == {id(pipeline.correlator)}
    assert len(callers) == 3
