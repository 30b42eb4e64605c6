"""Query graph declaration and materialization."""

import pytest

from repro.spe import (
    CollectingSink,
    JoinOperator,
    ListSource,
    MapOperator,
    Query,
    QueryValidationError,
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


def test_parallel_operator_needs_factory():
    q = Query()
    q.add_source("src", ListSource("src", []))
    with pytest.raises(QueryValidationError, match="factory"):
        q.add_operator("m", identity(), "src", parallelism=2)


def test_parallel_build_creates_router_and_replicas():
    q = Query()
    q.add_source("src", ListSource("src", tuples()))
    q.add_operator("m", lambda: identity(), "src", parallelism=3)
    q.add_sink("out", CollectingSink(), "m")
    nodes = q.build()
    names = [n.name for n in nodes]
    assert "m::router" in names
    assert {"m::0", "m::1", "m::2"} <= set(names)
    assert "m::merge" in names
    merge = next(n for n in nodes if n.name == "m::merge")
    # every replica feeds the merge through its own single-producer stream,
    # so barrier alignment downstream of the replicas stays exact
    assert len(merge.inputs) == 3
    assert all(s._num_producers == 1 for s in merge.inputs)
    sink_node = nodes[-1]
    assert sink_node.inputs[0]._num_producers == 1
    for replica in nodes:
        if replica.name.startswith("m::") and replica.name[3:].isdigit():
            assert replica.base_name == "m"


def test_declared_parallel_stage_builds_the_replica_group_contract():
    """A ``parallelism=3`` stage materializes the rescalable group recipe."""

    def key_fn(t):
        return t.layer

    def factory():
        return identity()

    q = Query()
    q.add_source("src", ListSource("src", tuples()))
    q.add_operator("m", factory, "src", parallelism=3, key_fn=key_fn)
    q.add_sink("out", CollectingSink(), "m")
    nodes = q.build(capacity=7)
    assert [n.name for n in nodes] == [
        "src", "m::router", "m::0", "m::1", "m::2", "m::merge", "out",
    ]
    streams = {}
    for node in nodes:
        for stream in node.inputs + node.outputs:
            streams[stream.name] = (stream.capacity, stream.num_producers)
    assert streams == {
        "src->m::router": (7, 1),
        "m::router->m::0": (7, 1),
        "m::router->m::1": (7, 1),
        "m::router->m::2": (7, 1),
        "m::0->m::merge": (7, 1),
        "m::1->m::merge": (7, 1),
        "m::2->m::merge": (7, 1),
        "m->out": (7, 1),
    }
    router = nodes[1]
    assert router.router.num_shards == 3
    assert [s.name for s in router.outputs] == [
        "m::router->m::0", "m::router->m::1", "m::router->m::2",
    ]
    meta = router.rescale_meta
    assert meta.members == ["m"]
    assert meta.factories == [factory]
    assert meta.key_fn is key_fn
    assert (meta.router_name, meta.merge_name) == ("m::router", "m::merge")
    assert meta.member_capacities == [7]
    assert meta.out_capacity == 7
    merge = nodes[5]
    assert merge.operator.num_inputs == 3
    assert [n.base_name for n in nodes[2:5]] == ["m", "m", "m"]


def test_parallel_multi_input_rejected():
    q = Query()
    q.add_source("a", ListSource("a", []))
    q.add_operator("j", lambda: JoinOperator("j"), ["a"], parallelism=2)
    q.add_sink("out", CollectingSink(), "j")
    with pytest.raises(QueryValidationError):
        q.build()
    # arity satisfied, but a replica group takes exactly one upstream
    q = Query()
    q.add_source("a", ListSource("a", []))
    q.add_source("b", ListSource("b", []))
    q.add_operator("j", lambda: JoinOperator("j"), ["a", "b"], parallelism=2)
    q.add_sink("out", CollectingSink(), "j")
    with pytest.raises(QueryValidationError, match="single-input"):
        q.build()


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
