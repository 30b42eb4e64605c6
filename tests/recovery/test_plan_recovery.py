"""Checkpoint portability across plan shapes (fusion x replication).

The plan compiler rewrites the physical graph, but checkpoints are keyed
by *logical* node names: a fused node acks one snapshot per constituent
and replicas carry their clone source's name as ``base_name``. These
tests pin the contract: a manifest written under any plan shape restores
into any other — except shrinking replicated state, which is a strict
error.
"""

from __future__ import annotations

import time

import pytest

from repro.kvstore.memory import MemoryStore
from repro.recovery import (
    ChaosInjector,
    CheckpointableSource,
    CheckpointCoordinator,
    RecoveryCoordinator,
    RecoveryError,
)
from repro.recovery.storage import CheckpointStorage
from repro.spe import (
    CollectingSink,
    IterableSource,
    MapOperator,
    PlanConfig,
    Query,
    StreamEngine,
)

from .conftest import make_tuples, paced


class RunningSum:
    """Stateful per-stage accumulator whose snapshot round-trips."""

    def __init__(self, field="sum"):
        self.field = field
        self.total = 0

    def __call__(self, t):
        self.total += t.payload["x"]
        return t.derive(payload={**t.payload, self.field: self.total})

    def snapshot_state(self):
        return {"total": self.total}

    def restore_state(self, state):
        self.total = int(state["total"])


class KeyedCount:
    """Per-key counter: keyed state, safe to replicate behind a hash router."""

    def __init__(self):
        self.counts = {}

    def __call__(self, t):
        key = t.layer % 4
        self.counts[key] = self.counts.get(key, 0) + 1
        return t.derive(payload={**t.payload, "nth": self.counts[key]})

    def snapshot_state(self):
        return {"counts": {str(k): v for k, v in self.counts.items()}}

    def restore_state(self, state):
        self.counts = {int(k): v for k, v in state["counts"].items()}


def two_stage_query(n=40, delay=0.0):
    """src -> sum1 -> sum2 -> sink: a fusable chain of two stateful maps."""
    q = Query("chain2")
    source = CheckpointableSource(IterableSource("src", paced(make_tuples(n), delay)))
    q.add_source("src", source)
    q.add_operator("sum1", MapOperator("sum1", RunningSum("a")), "src")
    q.add_operator("sum2", MapOperator("sum2", RunningSum("b")), "sum1")
    sink = CollectingSink("out")
    q.add_sink("out", sink, "sum2")
    return q, sink


def keyed_query(n=40, delay=0.0):
    q = Query("keyed")
    source = CheckpointableSource(IterableSource("src", paced(make_tuples(n), delay)))
    q.add_source("src", source)
    q.add_operator(
        "kc",
        lambda: MapOperator("kc", KeyedCount()),
        "src",
        key_fn=lambda t: t.layer % 4,
        replicable=True,
    )
    sink = CollectingSink("out")
    q.add_sink("out", sink, "kc")
    return q, sink


def checkpointed_store(build, plan=None, n=60, epochs=1):
    """Run ``build(n, delay)`` to completion under ``plan``, checkpointing."""
    store = MemoryStore()
    query, _ = build(n=n, delay=0.01)
    coordinator = CheckpointCoordinator(store)
    engine = StreamEngine(mode="threaded")
    engine.start(query, checkpointer=coordinator, plan=plan)
    for _ in range(epochs):
        coordinator.trigger(timeout=15.0)
    engine.wait(timeout=30)
    return store


def test_unfused_checkpoint_restores_into_fused_plan():
    store = checkpointed_store(two_stage_query, plan=None)
    recovery = RecoveryCoordinator(store)
    query, sink = two_stage_query(n=60)
    StreamEngine(mode="sync").run(query, on_built=recovery, plan=PlanConfig())
    assert {"sum1", "sum2"} <= set(recovery.report.nodes_restored)
    assert [t.payload["x"] for t in sink.results] == list(range(60))
    # both stages accumulate the same raw x values independently
    assert sink.results[-1].payload["a"] == sum(range(60))
    assert sink.results[-1].payload["b"] == sum(range(60))


def test_fused_checkpoint_restores_into_unfused_plan():
    store = checkpointed_store(two_stage_query, plan=PlanConfig())
    recovery = RecoveryCoordinator(store)
    query, sink = two_stage_query(n=60)
    StreamEngine(mode="sync").run(query, on_built=recovery, plan=None)
    assert {"sum1", "sum2"} <= set(recovery.report.nodes_restored)
    assert [t.payload["x"] for t in sink.results] == list(range(60))
    assert sink.results[-1].payload["a"] == sum(range(60))


def test_manifests_are_identical_across_plan_shapes():
    """The fused run snapshots under the original node names — its manifest
    is byte-compatible with the unfused run's."""
    plain = checkpointed_store(two_stage_query, plan=None)
    fused = checkpointed_store(two_stage_query, plan=PlanConfig())
    manifest_plain = CheckpointStorage(plain).load_manifest(0)
    manifest_fused = CheckpointStorage(fused).load_manifest(0)
    assert sorted(manifest_plain["nodes"]) == sorted(manifest_fused["nodes"])
    assert manifest_plain["sources"] == manifest_fused["sources"]


def test_unreplicated_checkpoint_restores_into_every_replica():
    store = checkpointed_store(keyed_query, plan=None)
    recovery = RecoveryCoordinator(store)
    query, sink = keyed_query(n=60)
    StreamEngine(mode="sync").run(
        query, on_built=recovery, plan=PlanConfig(parallelism=3)
    )
    assert "kc" in recovery.report.nodes_restored
    # every layer's tuple arrives exactly once; per-key sequence numbers
    # continue across the restore with no gap and no repeat
    got = sorted((t.layer, t.payload["nth"]) for t in sink.results)
    expected = sorted((i, i // 4 + 1) for i in range(60))
    assert got == expected


def test_replicated_checkpoint_into_unreplicated_plan_is_strict_error():
    store = checkpointed_store(keyed_query, plan=PlanConfig(parallelism=2))
    manifest = CheckpointStorage(store).load_manifest(0)
    assert any("::" in name for name in manifest["nodes"])  # replica entries
    query, _ = keyed_query(n=20)
    with pytest.raises(RecoveryError, match="unknown node"):
        StreamEngine(mode="sync").run(
            query, on_built=RecoveryCoordinator(store), plan=None
        )
    # lenient mode degrades to a cold start for the orphaned replicas
    query2, sink2 = keyed_query(n=20)
    recovery = RecoveryCoordinator(store, strict=False)
    StreamEngine(mode="sync").run(query2, on_built=recovery, plan=None)
    assert len(sink2.results) == 20


def test_crash_unfused_then_recover_fused():
    """The ISSUE's acceptance scenario: checkpoint under the unoptimized
    plan, crash mid-stream, recover under the fused+batched plan."""
    store = MemoryStore()
    n = 60
    query, sink = two_stage_query(n=n, delay=0.02)
    coordinator = CheckpointCoordinator(store)
    engine = StreamEngine(mode="threaded")
    engine.start(query, checkpointer=coordinator, plan=None)
    coordinator.trigger(timeout=15.0)
    chaos = ChaosInjector(engine, lambda: len(sink.results) >= 10, timeout=30.0).start()
    assert chaos.join(timeout=60.0), "chaos kill did not fire"
    assert len(sink.results) < n, "crash came too late to matter"

    recovery = RecoveryCoordinator(store)
    query2, sink2 = two_stage_query(n=n)
    StreamEngine(mode="threaded").run(
        query2, on_built=recovery, plan=PlanConfig()
    )
    assert recovery.report is not None
    assert recovery.report.sources_restored == ["src"]
    assert [t.payload["x"] for t in sink2.results] == list(range(n))
    assert sink2.results[-1].payload["a"] == sum(range(n))


def test_fused_checkpoint_during_batched_run_round_trips():
    """Checkpoint under the default plan (fused, whole runs on edges),
    crash, recover under the same optimized shape — the common production
    path."""
    store = MemoryStore()
    n = 60
    plan = PlanConfig()
    query, sink = two_stage_query(n=n, delay=0.02)
    coordinator = CheckpointCoordinator(store)
    engine = StreamEngine(mode="threaded")
    engine.start(query, checkpointer=coordinator, plan=plan)
    coordinator.trigger(timeout=15.0)
    chaos = ChaosInjector(engine, lambda: len(sink.results) >= 10, timeout=30.0).start()
    assert chaos.join(timeout=60.0), "chaos kill did not fire"

    recovery = RecoveryCoordinator(store)
    query2, sink2 = two_stage_query(n=n)
    StreamEngine(mode="threaded").run(query2, on_built=recovery, plan=plan)
    assert [t.payload["x"] for t in sink2.results] == list(range(n))
    assert sink2.results[-1].payload["a"] == sum(range(n))
