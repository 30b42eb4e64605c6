"""The compiled plan is observationally equivalent to the graph as declared.

ISSUE 7's acceptance: the plan compiler swaps a fused chain's execution
to array-at-a-time kernels, and nothing else may change — the expert
sink sees the result multiset the unfused, tuple-at-a-time pipeline
(``plan=None``, the reference every plan is checked against) produces,
and checkpoints written under either shape restore into the other
(snapshots are keyed by logical node names, not by execution mode).

ISSUE 12 adds arrival-shape independence: a vectorized chain fed one tuple
sequence under *any* framing — all singles, arbitrary batch sizes, runs cut
by punctuation or payload-schema changes — produces the outputs, member
counters and snapshots a scalar fused chain (a ``FusedOperator`` built
directly) produces tuple by tuple.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ThermalThresholds, store_thresholds
from repro.core import (
    DeployConfig,
    DetectEventOperator,
    IsolateCells,
    LabelCell,
    PartitionOperator,
    RecoveryConfig,
    Strata,
    UseCaseConfig,
    build_use_case,
    calibrate_job,
    make_punctuation,
    specimen_regions_px,
)
from repro.kvstore.memory import MemoryStore
from repro.recovery import ChaosInjector, CheckpointCoordinator, RecoveryCoordinator
from repro.recovery.storage import CheckpointStorage
from repro.spe import PlanConfig, StreamTuple
from repro.spe.plan import FusedOperator, VectorizedFusedOperator, _FusedPart
from repro.spe.stream import TupleBatch
from tests.conftest import TEST_IMAGE_PX
from tests.recovery.test_crash_recovery import signature

CELL_EDGE = 5
WINDOW = 4

#: the graph as declared: one thread per operator, tuple at a time
PLAN_OFF = None
VECTOR_PLAN = PlanConfig()


def _paced(records, delay):
    for record in records:
        time.sleep(delay)
        yield record


def _build(
    strata, layer_records, reference_images, test_job, delay=0.0, checkpointable=False
):
    config = UseCaseConfig(
        image_px=TEST_IMAGE_PX, cell_edge_px=CELL_EDGE, window_layers=WINDOW
    )
    calibrate_job(
        strata.kv, test_job.job_id, reference_images, CELL_EDGE,
        regions=specimen_regions_px(test_job.specimens, TEST_IMAGE_PX),
    )
    ot = _paced(layer_records, delay) if delay else iter(layer_records)
    pp = _paced(layer_records, delay) if delay else iter(layer_records)
    return build_use_case(
        ot, pp, config, strata=strata, checkpointable=checkpointable
    )


@pytest.fixture(scope="module")
def oracle_signature(layer_records, reference_images, test_job):
    """Sink output with the plan off, the comparison baseline."""
    strata = Strata(engine_mode="threaded")
    pipeline = _build(strata, layer_records, reference_images, test_job)
    strata.deploy(DeployConfig(plan=PLAN_OFF))
    return signature(pipeline.sink.results)


def test_vectorized_plan_output_matches_plan_off(
    layer_records, reference_images, test_job, oracle_signature
):
    strata = Strata(engine_mode="threaded")
    pipeline = _build(strata, layer_records, reference_images, test_job)
    # guard against a vacuous pass: the compiled plan must actually
    # contain a vectorized chain before we compare outputs
    assert "mode=vectorized" in strata.explain(VECTOR_PLAN)
    strata.deploy(DeployConfig(plan=VECTOR_PLAN))
    assert signature(pipeline.sink.results) == oracle_signature


def test_vectorized_single_tuple_batches_match(
    layer_records, reference_images, test_job, oracle_signature
):
    """A paced source: each layer reaches the chain as its own one-row run
    (worst-case fill)."""
    strata = Strata(engine_mode="threaded")
    pipeline = _build(strata, layer_records, reference_images, test_job, delay=0.02)
    strata.deploy(DeployConfig(plan=VECTOR_PLAN))
    assert signature(pipeline.sink.results) == oracle_signature


def _checkpointed_store(layer_records, reference_images, test_job, plan):
    """Run the use case to completion under ``plan``, checkpointing once."""
    store = MemoryStore()
    strata = Strata(engine_mode="threaded")
    _build(
        strata, layer_records, reference_images, test_job,
        delay=0.05, checkpointable=True,
    )
    coordinator = CheckpointCoordinator(store)
    strata.start(
        DeployConfig(plan=plan, recovery=RecoveryConfig(checkpointer=coordinator))
    )
    coordinator.trigger(timeout=15.0)
    strata.wait(timeout=60)
    return store


def test_checkpoint_manifests_identical_across_execution_modes(
    layer_records, reference_images, test_job
):
    """Snapshots are keyed by logical node names: a manifest written under
    the vectorized plan lists the same nodes and source offsets as one
    written with the plan off."""
    unfused = _checkpointed_store(
        layer_records, reference_images, test_job, PLAN_OFF
    )
    vectorized = _checkpointed_store(
        layer_records, reference_images, test_job, VECTOR_PLAN
    )
    manifest_unfused = CheckpointStorage(unfused).load_manifest(0)
    manifest_vectorized = CheckpointStorage(vectorized).load_manifest(0)
    assert sorted(manifest_unfused["nodes"]) == sorted(manifest_vectorized["nodes"])
    assert manifest_unfused["sources"] == manifest_vectorized["sources"]


def _crash_then_recover(
    layer_records, reference_images, test_job, crash_plan, recover_plan
):
    """Checkpoint + crash under one plan shape, recover under the other."""
    ckpt_store = MemoryStore()
    strata = Strata(engine_mode="threaded")
    pipeline = _build(
        strata, layer_records, reference_images, test_job,
        delay=0.35, checkpointable=True,
    )
    coordinator = CheckpointCoordinator(ckpt_store)
    strata.start(
        DeployConfig(
            plan=crash_plan, recovery=RecoveryConfig(checkpointer=coordinator)
        )
    )
    coordinator.trigger(timeout=15.0)
    chaos = ChaosInjector(
        strata._engine, lambda: len(pipeline.sink.results) >= 6, timeout=60.0
    ).start()
    assert chaos.join(timeout=90.0), "chaos kill did not fire"
    partial = signature(pipeline.sink.results)

    strata2 = Strata(engine_mode="threaded")
    pipeline2 = _build(
        strata2, layer_records, reference_images, test_job, checkpointable=True
    )
    recovery = RecoveryCoordinator(ckpt_store)
    strata2.deploy(
        DeployConfig(
            plan=recover_plan, recovery=RecoveryConfig(recover_from=recovery)
        )
    )
    assert recovery.report is not None
    assert recovery.report.sources_restored  # both collectors rewound
    return partial, signature(pipeline2.sink.results)


def test_crash_with_plan_off_recovers_under_vectorized(
    layer_records, reference_images, test_job, oracle_signature
):
    partial, recovered = _crash_then_recover(
        layer_records, reference_images, test_job, PLAN_OFF, VECTOR_PLAN
    )
    assert len(partial) < len(oracle_signature), "crash came too late to matter"
    # the vectorized recovery closes the gap exactly: everything the
    # oracle reported, nothing extra, no duplicates
    assert sorted(set(partial) | set(recovered)) == oracle_signature
    assert len(recovered) == len(set(recovered)), "duplicate results delivered"


def test_crash_under_vectorized_plan_recovers_with_plan_off(
    layer_records, reference_images, test_job, oracle_signature
):
    partial, recovered = _crash_then_recover(
        layer_records, reference_images, test_job, VECTOR_PLAN, PLAN_OFF
    )
    assert len(partial) < len(oracle_signature), "crash came too late to matter"
    assert sorted(set(partial) | set(recovered)) == oracle_signature
    assert len(recovered) == len(set(recovered)), "duplicate results delivered"


# -- arrival-shape equivalence (operator level) -------------------------------

IMAGE_PX = 8


def _split_halves(t):
    """Scalar-only partition F: a layer image -> its two half-plate specimens."""
    if t.specimen is not None:
        return [t.derive()]
    image = t.payload["image"]
    half = IMAGE_PX // 2
    return [
        t.derive(
            payload={"image": image[:, c:c + half], "origin_row": 0, "origin_col": c},
            specimen=f"half-{c}",
            portion="whole",
        )
        for c in (0, half)
    ]


def _tag(t):
    """Scalar-only detectEvent F behind the block group."""
    return [t.derive(payload={**t.payload, "seen": True})]


def _chain(cls):
    """spec (scalar, mints punctuation) -> [cell, label] block group -> tail."""
    store = MemoryStore()
    store_thresholds(store, "j", ThermalThresholds(60.0, 100.0, 150.0, 190.0))
    operators = [
        PartitionOperator("spec", _split_halves),
        PartitionOperator("cell", IsolateCells(2)),
        DetectEventOperator("label", LabelCell(store)),
        DetectEventOperator("tail", _tag),
    ]
    op = cls("chain", [_FusedPart(o.name, o.name, o) for o in operators])
    op.enable_member_stats()
    return op


def _image(seed, shape=(IMAGE_PX, IMAGE_PX)):
    return np.random.default_rng(seed).integers(0, 256, size=shape).astype(float)


def _sequence(spec):
    """Materialize a drawn spec into fresh tuples (never shared across runs)."""
    out = []
    for i, (kind, seed) in enumerate(spec):
        base = dict(tau=float(i), job="j", layer=i)
        if kind == "layer":  # specimen-less: spec fans it out + mints punctuation
            out.append(StreamTuple(payload={"image": _image(seed)}, **base))
        elif kind == "specimen":  # block-eligible on arrival, schema A
            out.append(StreamTuple(
                payload={"image": _image(seed, (4, 4)), "origin_row": 2, "origin_col": 4},
                specimen="pre", portion="whole", **base,
            ))
        elif kind == "bare":  # block-eligible, schema B: splits the block run
            out.append(StreamTuple(
                payload={"image": _image(seed, (4, 6))},
                specimen="pre", portion="whole", **base,
            ))
        elif kind == "shaped":  # schema C: masked means + coverage filter
            mask = np.random.default_rng(seed + 1).random((4, 4)) > 0.4
            out.append(StreamTuple(
                payload={"image": _image(seed, (4, 4)), "part_mask": mask},
                specimen="pre", portion="whole", **base,
            ))
        else:  # punctuation arriving from upstream: ineligible, forwarded
            template = StreamTuple(payload={}, **base)
            out.append(make_punctuation(template, "pre"))
    return out


def _observable(t):
    return (t.tau, t.job, t.layer, t.specimen, t.portion, sorted(t.payload.items()))


_SPEC = st.lists(
    st.tuples(
        st.sampled_from(["layer", "specimen", "bare", "shaped", "punct"]),
        st.integers(min_value=0, max_value=2**16),
    ),
    min_size=1,
    max_size=24,
)


@settings(max_examples=60, deadline=None)
@given(
    spec=_SPEC,
    cuts=st.lists(st.integers(min_value=1, max_value=9), min_size=1),
    singles_via_process=st.booleans(),
)
def test_any_framing_matches_the_scalar_chain(spec, cuts, singles_via_process):
    scalar = _chain(FusedOperator)
    expected = []
    for t in _sequence(spec):
        expected.extend(scalar.process(0, t))

    vectorized = _chain(VectorizedFusedOperator)
    tuples = _sequence(spec)
    got = []
    at = k = 0
    while at < len(tuples):
        frame = tuples[at:at + cuts[k % len(cuts)]]
        at += len(frame)
        k += 1
        if len(frame) == 1 and singles_via_process:
            got.extend(vectorized.process(0, frame[0]))
        else:
            got.extend(vectorized.process_many(TupleBatch(frame)))

    assert [_observable(t) for t in got] == [_observable(t) for t in expected]
    assert vectorized.member_stats() == scalar.member_stats()
    assert vectorized.snapshot_parts() == scalar.snapshot_parts()


def test_all_singles_still_form_blocks_behind_a_fan_out():
    """Guard against a vacuous property: fed one layer at a time, the block
    group still runs (the scalar head hands it a two-specimen run)."""
    op = _chain(VectorizedFusedOperator)
    for t in _sequence([("layer", 1), ("layer", 2), ("layer", 3)]):
        op.process(0, t)
    assert op.blocks_in == 3
    assert op.block_rows_in == 6
