"""Property: a compiled plan is observationally equivalent to the query.

The oracle is the :class:`SynchronousScheduler` running the graph exactly
as declared (no fusion, no replication, tuple at a time). For any randomly
generated pipeline and input, the optimized threaded plan must deliver
the same sink output: the identical *sequence* for linear plans (fusion
and whole-run transport may not reorder), the identical *multiset* once
replication is in play (the merge union interleaves replica outputs
arbitrarily).
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
    TupleBatch,
)
from repro.spe.source import Source

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


class _RunSource(Source):
    """Yields its tuples as ``TupleBatch`` runs of the given lengths."""

    def __init__(self, name, tuples, lengths):
        super().__init__(name)
        self._tuples = tuples
        self._lengths = lengths

    def __iter__(self):
        start = 0
        for n in self._lengths:
            if start >= len(self._tuples):
                return
            yield TupleBatch(self._tuples[start:start + n])
            start += n
        yield from self._tuples[start:]


def _build(stages, values, replicable: bool, runs=None):
    q = Query("prop")
    tuples = [
        StreamTuple(tau=float(i), job="j", layer=i, payload={"x": v})
        for i, v in enumerate(values)
    ]
    source = ListSource("src", tuples) if runs is None else _RunSource("src", tuples, runs)
    q.add_source("src", source)
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


@given(
    stages=_STAGES,
    values=_INPUTS,
    runs=st.lists(st.integers(min_value=1, max_value=32), max_size=12),
)
@settings(max_examples=25, deadline=None)
def test_fused_batched_plan_matches_sync_oracle(stages, values, runs):
    """The source yields runs of drawn lengths (tuples past the drawn runs
    come one by one), so the fused chain sees varied run shapes."""
    oracle = StreamEngine(mode="sync").run(_build(stages, values, False))
    optimized = StreamEngine(mode="threaded").run(
        _build(stages, values, False, runs), plan=PlanConfig()
    )
    # linear plans must preserve the exact output sequence, not just the set
    assert _payloads(optimized) == _payloads(oracle)


@given(stages=_STATELESS_STAGES, values=_INPUTS, parallelism=st.sampled_from([2, 3]))
@settings(max_examples=15, deadline=None)
def test_replicated_plan_matches_sync_oracle_as_multiset(stages, values, parallelism):
    oracle = StreamEngine(mode="sync").run(_build(stages, values, False))
    plan = PlanConfig(parallelism=parallelism)
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
        build(), plan=PlanConfig()
    )
    assert _payloads(optimized) == _payloads(oracle)
    total = sum(t.payload["n"] for t in optimized.sinks["out"].results)
    assert total == 37
