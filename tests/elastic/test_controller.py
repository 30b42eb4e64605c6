"""Live rescaling: discovery, drain/re-shard/splice equivalence, interplay
with checkpoint epochs, and the structured event/metric surface."""

import threading
import time
from collections import Counter

import pytest

from repro.core import DeployConfig, RecoveryConfig, Strata
from repro.elastic import (
    ElasticConfig,
    Fuse,
    ReplanConfig,
    Rescale,
    Unfuse,
    discover_groups,
    elastic_plan,
)
from repro.kvstore.memory import MemoryStore
from repro.recovery import CheckpointCoordinator
from repro.spe import CollectingSink, ListSource, PlanConfig, PlanError, Query
from repro.spe.plan import replicate_keyed_stages
from repro.spe.source import Source
from repro.spe.tuples import StreamTuple
from tests.conftest import assert_one_producer_one_consumer

N_RECORDS = 240
SPECIMENS = 5

#: manual-rescale config: huge tick so the control loop never interferes,
#: zero cooldown so back-to-back test rescales are allowed.
MANUAL = ElasticConfig(max_parallelism=4, tick_s=60.0, cooldown_s=0.0)


class SlowSource(Source):
    """Paced replay: keeps the stream alive while a rescale drains."""

    def __init__(self, name, records, delay=0.002):
        super().__init__(name)
        self._records = list(records)
        self._delay = delay

    def __iter__(self):
        for t in self._records:
            if self._delay:
                time.sleep(self._delay)
            t.ingest_time = time.monotonic()
            yield t


def records(n=N_RECORDS):
    return [
        StreamTuple(tau=float(i), job="j", layer=i // 8, payload={"v": i})
        for i in range(n)
    ]


def assign(t):
    return [t.derive(specimen=f"s{t.payload['v'] % SPECIMENS}", portion="p0")]


def mark(t):
    return [t.derive(payload={**t.payload, "c": t.payload["v"] * 2})]


def build(strata, recs, delay=0.002, checkpointable=False):
    """source -> partition(assign) -> partition(mark) -> sink.

    The second partition is downstream of the first keyed stream, so it is
    the replicable stage the elastic controller manages.
    """
    sink = CollectingSink("out")
    strata.add_source(
        SlowSource("src", recs, delay), "raw", checkpointable=checkpointable
    )
    strata.partition("raw", "parts", assign)
    strata.partition("parts", "cells", mark)
    strata.deliver("cells", sink)
    return sink


def payload_counts(sink):
    return Counter(tuple(sorted(t.payload.items())) for t in sink.results)


@pytest.fixture(scope="module")
def baseline():
    strata = Strata(engine_mode="threaded")
    sink = build(strata, records(), delay=0.0)
    strata.deploy()
    return payload_counts(sink)


# -- discovery and validation ------------------------------------------------


def test_discover_groups_empty_on_unreplicated_plan():
    strata = Strata(engine_mode="threaded")
    build(strata, records(8), delay=0.0)
    assert discover_groups(strata.query.build()) == []


def test_elastic_without_groups_raises_plan_error():
    strata = Strata(engine_mode="threaded")
    sink = CollectingSink("out")
    # source -> deliver: nothing keyed, nothing replicable
    strata.add_source(ListSource("src", records(4)), "raw")
    strata.deliver("raw", sink)
    with pytest.raises(PlanError, match="no keyed-replicated operator group"):
        strata.start(DeployConfig(plan=True, elastic=MANUAL))
    assert not strata.running()


def test_timed_out_wait_keeps_controller_and_checkpointer_running(baseline):
    """Strata.wait returning on its timeout must leave the deployment's
    helpers with the nodes they serve; the wait that sees the nodes
    finish stops them."""

    def helpers():
        names = {t.name for t in threading.enumerate()}
        return {"elastic-controller", "checkpoint-coordinator"} & names

    strata = Strata(engine_mode="threaded")
    sink = build(strata, records(), delay=0.01, checkpointable=True)
    strata.start(
        DeployConfig(
            plan=True, elastic=MANUAL, recovery=RecoveryConfig(interval_s=0.2)
        )
    )
    controller = strata.elastic
    strata.wait(timeout=0.05)
    assert strata.running()
    assert strata.elastic is controller
    assert helpers() == {"elastic-controller", "checkpoint-coordinator"}
    strata.wait(timeout=120)
    assert not strata.running() and strata.elastic is None
    assert helpers() == set()
    assert payload_counts(sink) == baseline


def test_keyless_replicable_head_raises_plan_error():
    from repro.core.operators import PartitionOperator

    q = Query()
    q.add_source("src", ListSource("src", records(4)))
    q.add_operator("op", lambda: PartitionOperator("op"), "src", replicable=True)
    q.add_sink("out", CollectingSink(), "op")
    with pytest.raises(PlanError, match="declares no key"):
        replicate_keyed_stages(q.build(), 2)


@pytest.mark.parametrize(
    "plan_parallelism, bounds, start",
    [(1, (1, 4), 1), (2, (1, 4), 2), (1, (3, 4), 3), (6, (1, 4), 4)],
)
def test_elastic_plan_starts_at_the_plans_parallelism_clamped(
    plan_parallelism, bounds, start
):
    elastic = ElasticConfig(min_parallelism=bounds[0], max_parallelism=bounds[1])
    plan, forced = elastic_plan(PlanConfig(parallelism=plan_parallelism), elastic)
    assert (plan.parallelism, forced) == (start, True)


def test_elastic_deployment_starts_at_the_plans_parallelism(baseline):
    strata = Strata(engine_mode="threaded")
    sink = build(strata, records(), delay=0.0)
    report = strata.deploy(DeployConfig(plan=PlanConfig(parallelism=2), elastic=MANUAL))
    assert report.extra["elastic"]["groups"] == {"partition:cells": 2}
    assert payload_counts(sink) == baseline


# -- live rescale equivalence ------------------------------------------------


def test_rescale_up_preserves_output(baseline):
    strata = Strata(engine_mode="threaded")
    sink = build(strata, records())
    strata.start(DeployConfig(plan=True, elastic=MANUAL))
    controller = strata.elastic
    assert controller is not None and len(controller.groups) == 1
    group = controller.groups[0]
    assert group.parallelism == 1
    assert controller.rescale(group, 3)
    assert group.parallelism == 3
    strata.wait(timeout=120)
    assert payload_counts(sink) == baseline
    assert controller.summary()["rescales_up"] == 1


def test_a_rescale_splice_keeps_one_producer_and_one_consumer_per_stream(
    baseline,
):
    """The splice builds new streams around the group's boundary; none of
    them, and none the group kept, gains a second writer or reader."""
    strata = Strata(engine_mode="threaded")
    sink = build(strata, records())
    strata.start(DeployConfig(plan=True, elastic=MANUAL))
    controller = strata.elastic
    live = controller._nodes  # the engine's node list, spliced in place
    assert_one_producer_one_consumer(live)
    assert controller.rescale(controller.groups[0], 3)
    assert_one_producer_one_consumer(live)
    strata.wait(timeout=120)
    assert payload_counts(sink) == baseline


def test_rescale_up_then_down_preserves_output(baseline):
    strata = Strata(engine_mode="threaded")
    sink = build(strata, records())
    strata.start(DeployConfig(plan=True, elastic=MANUAL))
    controller = strata.elastic
    group = controller.groups[0]
    assert controller.rescale(group, 4)
    assert controller.rescale(group, 2)
    strata.wait(timeout=120)
    assert payload_counts(sink) == baseline
    summary = controller.summary()
    assert summary["rescales_up"] == 1 and summary["rescales_down"] == 1
    assert summary["groups"] == {group.name: 2}
    kinds = [e["kind"] for e in summary["events"]]
    assert kinds.count("rescale") == 2


@pytest.mark.parametrize("mutation", ["rescale", "unfuse", "fuse"])
def test_mutation_after_end_of_stream_aborts_cleanly(mutation):
    """Every plan mutation runs the same drain: when end-of-stream beat the
    barrier to the target, it returns False having touched nothing — node
    list, checkpointer binding and executors are exactly as they were."""
    coordinator = CheckpointCoordinator(MemoryStore())
    rebinds = []
    rebind = coordinator.rebind
    coordinator.rebind = lambda nodes: (rebinds.append(len(nodes)), rebind(nodes))
    strata = Strata(engine_mode="threaded")
    sink = CollectingSink("out")
    strata.add_source(
        SlowSource("src", records(48), 0.005), "raw", checkpointable=True
    )
    # an adaptable two-member chain in front of the rescalable group
    strata.detect_event("raw", "m1", mark)
    strata.detect_event("m1", "m2", mark, replicable=False)
    strata.partition("m2", "parts", assign)
    strata.partition("parts", "cells", mark)
    strata.deliver("cells", sink)
    strata.start(
        DeployConfig(
            plan=True,
            elastic=ElasticConfig(
                max_parallelism=4, tick_s=60.0, cooldown_s=0.0,
                replan=ReplanConfig(cooldown_s=0.0),
            ),
            recovery=RecoveryConfig(checkpointer=coordinator),
        )
    )
    controller = strata.elastic
    group, chain = controller.groups[0], controller.chains[0]
    if mutation == "fuse":  # fusing needs an unfused chain to start from
        assert controller.apply_action(Unfuse(chain=chain.name))
    strata.wait(timeout=60)  # the stream is done; nothing left to drain
    before = (
        [id(n) for n in controller._nodes],
        [id(ex) for ex in controller._scheduler.executors],
        list(rebinds),
        controller.summary()["actions"],
        group.parallelism,
        chain.fused,
    )
    action = {
        "rescale": Rescale(group=group.name, target=3),
        "unfuse": Unfuse(chain=chain.name),
        "fuse": Fuse(chain=chain.name),
    }[mutation]
    assert not controller.apply_action(action)
    assert controller.events[-1]["kind"] == "abort"
    assert before == (
        [id(n) for n in controller._nodes],
        [id(ex) for ex in controller._scheduler.executors],
        rebinds,
        controller.summary()["actions"],
        group.parallelism,
        chain.fused,
    )
    assert len(sink.results) == 48


def test_rescale_to_same_parallelism_is_a_no_op():
    strata = Strata(engine_mode="threaded")
    build(strata, records(24), delay=0.0)
    strata.start(DeployConfig(plan=True, elastic=MANUAL))
    controller = strata.elastic
    group = controller.groups[0]
    assert not controller.rescale(group, group.parallelism)
    strata.wait(timeout=60)


# -- interplay with checkpointing --------------------------------------------


def test_rescale_concurrent_with_checkpoint_epoch(baseline):
    coordinator = CheckpointCoordinator(MemoryStore())
    strata = Strata(engine_mode="threaded")
    sink = build(strata, records(), checkpointable=True)
    strata.start(
        DeployConfig(
            plan=True, elastic=MANUAL,
            recovery=RecoveryConfig(checkpointer=coordinator),
        )
    )
    controller = strata.elastic
    group = controller.groups[0]
    epochs = []

    def checkpoint():
        epochs.append(coordinator.trigger(timeout=60.0))

    worker = threading.Thread(target=checkpoint)
    worker.start()
    controller.rescale(group, 3)
    worker.join(timeout=90)
    assert not worker.is_alive()
    strata.wait(timeout=120)
    assert payload_counts(sink) == baseline
    # the checkpoint epoch committed despite the group being swapped out
    # mid-flight: the coordinator was re-bound to the replacement nodes
    assert coordinator.completed_epochs


# -- observability surface ---------------------------------------------------


def test_rescale_exports_metrics_and_events(baseline):
    strata = Strata(engine_mode="threaded", obs=True)
    sink = build(strata, records())
    strata.start(DeployConfig(plan=True, elastic=MANUAL))
    controller = strata.elastic
    group = controller.groups[0]
    assert controller.rescale(group, 2)
    snap = strata.obs.snapshot()
    by_name = {}
    for sample in snap.samples:
        by_name.setdefault(sample.name, []).append(sample)
    assert by_name["elastic_parallelism"][0].value == 2.0
    assert sum(s.value for s in by_name["elastic_rescales_total"]) == 1.0
    assert by_name["elastic_last_rescale_seconds"][0].value > 0.0
    strata.wait(timeout=120)
    assert payload_counts(sink) == baseline
    event = controller.events[-1]
    assert event["kind"] == "rescale"
    assert event["from"] == 1 and event["to"] == 2


# -- runtime bound lending (the fleet scheduler's hook) ----------------------


def test_set_bounds_moves_live_clamp(baseline):
    from repro.elastic.controller import ElasticError

    strata = Strata(engine_mode="threaded")
    sink = build(strata, records())
    strata.start(DeployConfig(plan=True, elastic=MANUAL))
    controller = strata.elastic
    assert controller.bounds == (1, 4)  # the config bounds, initially

    controller.set_bounds(2, 3)
    assert controller.bounds == (2, 3)
    assert controller.events[-1]["kind"] == "bounds"
    events_before = len(controller.events)
    controller.set_bounds(2, 3)  # unchanged bounds: no event spam
    assert len(controller.events) == events_before

    with pytest.raises(ElasticError):
        controller.set_bounds(3, 2)
    with pytest.raises(ElasticError):
        controller.set_bounds(0, 2)

    # a binding lower bound forces the next tick to scale the group up,
    # even though the policy itself sees no load
    controller.tick()
    assert controller.groups[0].parallelism >= 2
    strata.wait(timeout=120)
    assert payload_counts(sink) == baseline
