"""Query graph declaration and materialization."""

import inspect

import pytest

from repro.obs import ObsContext
from repro.spe import (
    CollectingSink,
    JoinOperator,
    ListSource,
    MapOperator,
    Query,
    QueryValidationError,
    StreamEngine,
    StreamTuple,
)


def tuples(n=3):
    return [StreamTuple(tau=float(i), job="j", layer=i, payload={"x": i}) for i in range(n)]


def identity(name="m"):
    return MapOperator(name, lambda t: t)


def test_minimal_query_builds():
    q = Query()
    q.add_source("src", ListSource("src", tuples()))
    q.add_operator("m", identity(), "src")
    q.add_sink("out", CollectingSink(), "m")
    nodes = q.build()
    assert [n.name for n in nodes] == ["src", "m", "out"]
    assert len(nodes[0].outputs) == 1
    assert nodes[1].inputs[0] is nodes[0].outputs[0]


def test_duplicate_name_rejected():
    q = Query()
    q.add_source("x", ListSource("x", []))
    with pytest.raises(QueryValidationError):
        q.add_source("x", ListSource("x", []))


def test_unknown_upstream_rejected():
    q = Query()
    with pytest.raises(QueryValidationError):
        q.add_operator("m", identity(), "ghost")


def test_missing_sink_rejected():
    q = Query()
    q.add_source("src", ListSource("src", []))
    with pytest.raises(QueryValidationError, match="no sinks"):
        q.build()


def test_missing_source_rejected():
    q = Query()
    with pytest.raises(QueryValidationError):
        q.build()


def test_unconsumed_node_rejected():
    q = Query()
    q.add_source("src", ListSource("src", []))
    q.add_source("orphan", ListSource("orphan", []))
    q.add_sink("out", CollectingSink(), "src")
    with pytest.raises(QueryValidationError, match="no consumer"):
        q.build()


def test_join_arity_checked():
    q = Query()
    q.add_source("a", ListSource("a", []))
    q.add_operator("join", JoinOperator("join"), ["a"])
    q.add_sink("out", CollectingSink(), "join")
    with pytest.raises(QueryValidationError, match="expects 2 inputs"):
        q.build()


def test_replicable_operator_needs_factory():
    q = Query()
    q.add_source("src", ListSource("src", []))
    with pytest.raises(QueryValidationError, match="factory"):
        q.add_operator("m", identity(), "src", replicable=True)


def test_fanout_broadcasts_to_all_consumers():
    q = Query()
    q.add_source("src", ListSource("src", tuples()))
    q.add_operator("m1", identity("m1"), "src")
    q.add_operator("m2", identity("m2"), "src")
    q.add_sink("o1", CollectingSink("o1"), "m1")
    q.add_sink("o2", CollectingSink("o2"), "m2")
    nodes = q.build()
    src = nodes[0]
    assert len(src.outputs) == 2


@pytest.mark.parametrize("mode", ["sync", "threaded"])
def test_every_engine_runs_at_the_query_capacity(mode):
    """The query owns stream capacity; no engine overrides it."""
    q = Query("tight", default_capacity=4)
    q.add_source("src", ListSource("src", tuples(20)))
    q.add_operator("m", identity(), "src")
    q.add_sink("out", CollectingSink(), "m")
    report = StreamEngine(mode=mode).run(q, obs=ObsContext.resolve(True))
    capacities = report.extra["metrics"].filter("spe_queue_capacity").samples
    assert [s.value for s in capacities] == [4, 4]
    assert len(report.sinks["out"].results) == 20


def test_capacity_is_set_on_the_query_only():
    assert "capacity" not in inspect.signature(StreamEngine.__init__).parameters
    assert "capacity" not in inspect.signature(Query.build).parameters
    assert "parallelism" not in inspect.signature(Query.add_operator).parameters
