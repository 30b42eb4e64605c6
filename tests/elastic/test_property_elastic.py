"""Property: any mid-stream rescale sequence is output-invisible.

The sequence of replica counts a deployment walks through must never
change *what* arrives at the sink — only how it got computed. Hypothesis
drives random rescale walks (up, down, repeats, no-ops) against the same
paced pipeline and compares the sink multiset with a static
parallelism=1 run of identical records.
"""

import time
from collections import Counter

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core import DeployConfig, Strata
from repro.elastic import ElasticConfig
from repro.spe import CollectingSink
from repro.spe.source import Source
from repro.spe.tuples import StreamTuple

N_RECORDS = 160
SPECIMENS = 7

MANUAL = ElasticConfig(max_parallelism=4, tick_s=60.0, cooldown_s=0.0)


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
        StreamTuple(tau=float(i), job="j", layer=i // 8, payload={"v": i})
        for i in range(N_RECORDS)
    ]


def assign(t):
    return [t.derive(specimen=f"s{t.payload['v'] % SPECIMENS}", portion="p0")]


def mark(t):
    return [t.derive(payload={**t.payload, "c": t.payload["v"] + 1000})]


def build(strata, delay):
    sink = CollectingSink("out")
    strata.add_source(SlowSource("src", records(), delay), "raw")
    strata.partition("raw", "parts", assign)
    strata.partition("parts", "cells", mark)
    strata.deliver("cells", sink)
    return sink


def payload_counts(sink):
    return Counter(tuple(sorted(t.payload.items())) for t in sink.results)


def static_baseline():
    strata = Strata(engine_mode="threaded")
    sink = build(strata, delay=0.0)
    strata.deploy()
    return payload_counts(sink)


_BASELINE = None


def baseline():
    global _BASELINE
    if _BASELINE is None:
        _BASELINE = static_baseline()
    return _BASELINE


@given(walk=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3))
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_rescale_walk_is_output_invisible(walk):
    strata = Strata(engine_mode="threaded")
    sink = build(strata, delay=0.0015)
    strata.start(DeployConfig(plan=True, elastic=MANUAL))
    controller = strata.elastic
    group = controller.groups[0]
    for target in walk:
        # a no-op target (== current) must be refused, a real one applied
        # unless the stream drained first — either way the output holds
        controller.rescale(group, target)
    strata.wait(timeout=120)
    assert payload_counts(sink) == baseline()
