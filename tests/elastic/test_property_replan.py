"""Property: any mid-stream adaptation walk is output-invisible.

Hypothesis drives random walks mixing every plan mutation — replica
rescales and chain unfuse/fuse round trips, with a checkpoint epoch
running concurrently — against the same paced pipeline, and compares the
sink multiset with a static-plan run of identical records. Whatever
shape the plan walks through, the output must be exactly the static one
(divergence 0). Scalar-vs-block is not a step: the vectorized operator
picks per run, and ``tests/integration/test_vectorized_equivalence.py``
holds that choice output-invisible under arbitrary framings.
"""

import threading
import time
from collections import Counter

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core import DeployConfig, RecoveryConfig, Strata
from repro.elastic import (
    ElasticConfig,
    Fuse,
    ReplanConfig,
    Rescale,
    Unfuse,
)
from repro.kvstore.memory import MemoryStore
from repro.recovery import CheckpointCoordinator
from repro.spe import CollectingSink
from repro.spe.source import Source
from repro.spe.tuples import StreamTuple

N_RECORDS = 160
SPECIMENS = 5

MANUAL = ElasticConfig(
    max_parallelism=4, tick_s=60.0, cooldown_s=0.0,
    replan=ReplanConfig(cooldown_s=0.0, streak_ticks=1),
)


class SlowSource(Source):
    def __init__(self, name, records, delay):
        super().__init__(name)
        self._records = list(records)
        self._delay = delay

    def __iter__(self):
        for t in self._records:
            if self._delay:
                time.sleep(self._delay)
            t.ingest_time = time.monotonic()
            yield t


def records():
    return [
        StreamTuple(
            tau=float(i), job="j", layer=i // 8,
            specimen=f"s{i % 3}", portion="p0", payload={"v": i},
        )
        for i in range(N_RECORDS)
    ]


def scrub(t):
    return [t.derive(payload={**t.payload, "a": t.payload["v"] + 1})]


def enrich(t):
    return [t.derive(payload={**t.payload, "b": t.payload["v"] * 2})]


scrub.process_block = lambda block: block.with_columns(
    a=block.columns["v"] + 1
)
enrich.process_block = lambda block: block.with_columns(
    b=block.columns["v"] * 2
)


def assign(t):
    return [t.derive(specimen=f"s{t.payload['v'] % SPECIMENS}", portion="p0")]


def mark(t):
    return [t.derive(payload={**t.payload, "c": t.payload["v"] + 1000})]


def build(strata, delay, checkpointable=False):
    """chain (scrub+enrich, block-capable) feeding a keyed replica group."""
    sink = CollectingSink("out")
    strata.add_source(
        SlowSource("src", records(), delay), "raw",
        checkpointable=checkpointable,
    )
    strata.detect_event("raw", "m1", scrub)
    strata.detect_event("m1", "m2", enrich, replicable=False)
    strata.partition("m2", "parts", assign, replicable=False)
    strata.partition("parts", "cells", mark)
    strata.deliver("cells", sink)
    return sink


def payload_counts(sink):
    return Counter(tuple(sorted(t.payload.items())) for t in sink.results)


_BASELINE = None


def baseline():
    global _BASELINE
    if _BASELINE is None:
        strata = Strata(engine_mode="threaded")
        sink = build(strata, delay=0.0)
        strata.deploy()
        _BASELINE = payload_counts(sink)
    return _BASELINE


STEPS = ("up", "down", "unfuse", "fuse")


def to_action(step, controller):
    group = controller.groups[0]
    chain = controller.chains[0]
    if step == "up":
        return Rescale(group=group.name, target=min(4, group.parallelism + 1))
    if step == "down":
        return Rescale(group=group.name, target=max(1, group.parallelism - 1))
    if step == "unfuse":
        return Unfuse(chain=chain.name)
    return Fuse(chain=chain.name)


@given(walk=st.lists(st.sampled_from(STEPS), min_size=1, max_size=4))
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_adaptation_walk_is_output_invisible(walk):
    coordinator = CheckpointCoordinator(MemoryStore())
    strata = Strata(engine_mode="threaded")
    sink = build(strata, delay=0.0015, checkpointable=True)
    strata.start(
        DeployConfig(
            plan=True, elastic=MANUAL,
            recovery=RecoveryConfig(checkpointer=coordinator),
        )
    )
    controller = strata.elastic
    assert len(controller.groups) == 1 and len(controller.chains) == 1

    epoch_thread = threading.Thread(
        target=lambda: coordinator.trigger(timeout=60.0)
    )
    epoch_thread.start()
    for step in walk:
        # inapplicable steps (fuse while fused, unfuse while unfused, rescale
        # after EOS...) must be refused without corrupting anything — the
        # walk keeps going either way and the output must still hold
        controller.apply_action(to_action(step, controller))
    epoch_thread.join(timeout=90)
    assert not epoch_thread.is_alive()
    strata.wait(timeout=120)
    assert payload_counts(sink) == baseline()
