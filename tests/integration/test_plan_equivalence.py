"""Property: a compiled plan is observationally equivalent to the query.

The oracle is the :class:`SynchronousScheduler` running the graph exactly
as declared (no fusion, no replication, no batching). For any randomly
generated pipeline and input, the optimized threaded plan must deliver
the same sink output: the identical *sequence* for linear plans (fusion
and batching may not reorder), the identical *multiset* once replication
is in play (the merge union interleaves replica outputs arbitrarily).
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.spe import (
    AggregateOperator,
    CollectingSink,
    FilterOperator,
    ListSource,
    MapOperator,
    PlanConfig,
    Query,
    StreamEngine,
    StreamTuple,
)

# Each spec is (kind, knob); stages are instantiated fresh per run so the
# oracle and the optimized run never share state.
_STAGES = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(min_value=-5, max_value=5)),
        st.tuples(st.just("scale"), st.integers(min_value=1, max_value=3)),
        st.tuples(st.just("keep_mod"), st.integers(min_value=1, max_value=4)),
        st.tuples(st.just("running_sum"), st.just(0)),
    ),
    min_size=1,
    max_size=5,
)

_INPUTS = st.lists(st.integers(min_value=0, max_value=40), min_size=0, max_size=60)

# Replication only guarantees *per-key* order: the merge union interleaves
# keys arbitrarily, so a cross-key stateful stage (running_sum) downstream
# of a replicated group is legitimately nondeterministic — that is exactly
# the case `replicable=False` (the default) exists for. The replication
# property therefore ranges over order-commutative stages only.
_STATELESS_STAGES = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(min_value=-5, max_value=5)),
        st.tuples(st.just("scale"), st.integers(min_value=1, max_value=3)),
        st.tuples(st.just("keep_mod"), st.integers(min_value=1, max_value=4)),
    ),
    min_size=1,
    max_size=5,
)


def _make_stage(kind: str, knob: int, name: str):
    if kind == "add":
        return MapOperator(name, lambda t, k=knob: t.derive(payload={"x": t.payload["x"] + k}))
    if kind == "scale":
        return MapOperator(name, lambda t, k=knob: t.derive(payload={"x": t.payload["x"] * k}))
    if kind == "keep_mod":
        return FilterOperator(name, lambda t, k=knob: t.payload["x"] % (k + 1) != k)
    if kind == "running_sum":

        class RunningSum:
            def __init__(self):
                self.total = 0

            def __call__(self, t):
                self.total += t.payload["x"]
                return t.derive(payload={"x": t.payload["x"], "sum": self.total})

        return MapOperator(name, RunningSum())
    raise AssertionError(kind)


def _build(stages, values, replicable: bool):
    q = Query("prop")
    tuples = [
        StreamTuple(tau=float(i), job="j", layer=i, payload={"x": v})
        for i, v in enumerate(values)
    ]
    q.add_source("src", ListSource("src", tuples))
    upstream = "src"
    for i, (kind, knob) in enumerate(stages):
        name = f"s{i}"
        if replicable and kind != "running_sum":
            # stage state (filters/maps here are stateless) is keyed by layer,
            # so disjoint layers can run on independent replicas
            q.add_operator(
                name,
                lambda kind=kind, knob=knob, name=name: _make_stage(kind, knob, name),
                upstream,
                key_fn=lambda t: t.layer,
                replicable=True,
            )
        else:
            q.add_operator(name, _make_stage(kind, knob, name), upstream)
        upstream = name
    q.add_sink("out", CollectingSink(), upstream)
    return q


def _payloads(report):
    return [tuple(sorted(t.payload.items())) for t in report.sinks["out"].results]


@given(stages=_STAGES, values=_INPUTS, batch=st.sampled_from([1, 2, 7, 32]))
@settings(max_examples=25, deadline=None)
def test_fused_batched_plan_matches_sync_oracle(stages, values, batch):
    oracle = StreamEngine(mode="sync").run(_build(stages, values, False))
    plan = PlanConfig(edge_batch_size=batch)
    optimized = StreamEngine(mode="threaded").run(_build(stages, values, False), plan=plan)
    # linear plans must preserve the exact output sequence, not just the set
    assert _payloads(optimized) == _payloads(oracle)


@given(stages=_STATELESS_STAGES, values=_INPUTS, parallelism=st.sampled_from([2, 3]))
@settings(max_examples=15, deadline=None)
def test_replicated_plan_matches_sync_oracle_as_multiset(stages, values, parallelism):
    oracle = StreamEngine(mode="sync").run(_build(stages, values, False))
    plan = PlanConfig(edge_batch_size=8, parallelism=parallelism)
    optimized = StreamEngine(mode="threaded").run(
        _build(stages, values, True), plan=plan
    )
    # the merge union interleaves replica outputs: compare as multisets
    assert sorted(_payloads(optimized)) == sorted(_payloads(oracle))


def test_stateful_aggregate_survives_fusion_with_batching():
    """A windowed aggregate inside a fused chain flushes identically."""

    def build():
        q = Query("agg")
        tuples = [
            StreamTuple(tau=float(i), job="j", layer=i, payload={"x": i})
            for i in range(37)
        ]
        q.add_source("src", ListSource("src", tuples))
        q.add_operator("pre", MapOperator("pre", lambda t: t), "src")
        q.add_operator(
            "agg",
            AggregateOperator(
                "agg", ws=4.0, wa=4.0, fn=lambda k, s, e, ts: {"n": len(ts)}
            ),
            "pre",
        )
        q.add_operator("post", MapOperator("post", lambda t: t), "agg")
        q.add_sink("out", CollectingSink(), "post")
        return q

    oracle = StreamEngine(mode="sync").run(build())
    optimized = StreamEngine(mode="threaded").run(
        build(), plan=PlanConfig(edge_batch_size=16)
    )
    assert _payloads(optimized) == _payloads(oracle)
    total = sum(t.payload["n"] for t in optimized.sinks["out"].results)
    assert total == 37
