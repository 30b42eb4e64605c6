"""Plan compiler units: PlanConfig, FusedOperator, fusion/replication passes,
batched stream transport, and the reservoir latency recorder."""

import pytest

from repro.core import Strata
from repro.elastic import ElasticConfig, elastic_plan
from repro.fleet.runner import build_pipeline, resolve_workload
from repro.kvstore import MemoryStore
from repro.spe import (
    END_OF_STREAM,
    CheckpointBarrier,
    CollectingSink,
    FilterOperator,
    FusedOperator,
    JoinOperator,
    LatencyRecorder,
    ListSource,
    MapOperator,
    MetricsError,
    Operator,
    PlanConfig,
    Query,
    Stream,
    StreamEngine,
    StreamTuple,
    TupleBatch,
    VectorizedFusedOperator,
    compile_plan,
    fuse_linear_chains,
    render_plan,
    replicate_keyed_stages,
)
from repro.spe.plan import _FusedPart
from repro.spe.stream import item_weight
from tests.conftest import assert_one_producer_one_consumer


def tuples(n=3):
    return [
        StreamTuple(tau=float(i), job="j", layer=i, payload={"x": i}) for i in range(n)
    ]


def bump(name="m", k=1):
    return MapOperator(name, lambda t: t.derive(payload={"x": t.payload["x"] + k}))


class HoldLast(Operator):
    """Keeps the newest tuple, releasing the previous one — state that only
    drains on close, which makes EOS flush *ordering* observable."""

    num_inputs = 1

    def __init__(self, name):
        super().__init__(name)
        self.held = None

    def process(self, input_index, t):
        previous, self.held = self.held, t
        return [previous] if previous is not None else []

    def on_close(self):
        return [self.held] if self.held is not None else []

    def snapshot_state(self):
        return {"held": None if self.held is None else self.held.payload["x"]}

    def restore_state(self, state):
        x = state["held"]
        self.held = (
            None
            if x is None
            else StreamTuple(tau=float(x), job="j", layer=x, payload={"x": x})
        )


# -- PlanConfig --------------------------------------------------------------


def test_resolve_off_forms_return_none():
    assert PlanConfig.resolve(None) is None
    assert PlanConfig.resolve(False) is None


def test_resolve_true_gives_defaults():
    plan = PlanConfig.resolve(True)
    assert plan == PlanConfig()
    assert plan.parallelism == 1


def test_resolve_passes_instances_through():
    plan = PlanConfig(parallelism=4)
    assert PlanConfig.resolve(plan) is plan


def test_resolve_rejects_other_types():
    with pytest.raises(TypeError):
        PlanConfig.resolve("fast")


@pytest.mark.parametrize(
    "kwargs",
    [{"parallelism": 0}, {"parallelism": -1}],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        PlanConfig(**kwargs)


# -- the member protocol on Operator -----------------------------------------


def test_default_process_many_is_the_per_tuple_loop_on_the_given_input():
    join = JoinOperator("join")
    left = tuples(3)
    right = [t.derive(payload={"y": t.payload["x"] * 2}) for t in tuples(3)]
    assert join.process_many(left, 0) == []
    joined = join.process_many(right, 1)
    assert [(t.payload["x"], t.payload["y"]) for t in joined] == [(0, 0), (1, 2), (2, 4)]


def test_an_operator_is_scalar_only_unless_it_says_otherwise():
    op = bump()
    assert op.supports_block is False
    assert op.block_eligible(tuples(1)[0])
    with pytest.raises(NotImplementedError, match="no block variant"):
        op.process_block(object())


# -- FusedOperator -----------------------------------------------------------


def fused_of(*ops):
    return FusedOperator(
        "fused[" + "+".join(op.name for op in ops) + "]",
        [_FusedPart(op.name, op.name, op) for op in ops],
    )


def test_fused_process_is_function_composition():
    op = fused_of(bump("a", 1), bump("b", 10))
    [out] = op.process(0, tuples(1)[0])
    assert out.payload["x"] == 11


def test_fused_filter_short_circuits_cascade():
    op = fused_of(FilterOperator("f", lambda t: t.payload["x"] % 2 == 0), bump("b"))
    assert op.process(0, tuples(2)[1]) == []
    [out] = op.process(0, tuples(1)[0])
    assert out.payload["x"] == 1


def test_fused_close_preserves_unfused_flush_order():
    """EOS drains stage by stage: what stage i releases on close still flows
    through stages i+1..n before stage i+1 itself closes."""
    op = fused_of(HoldLast("a"), HoldLast("b"))
    ts = tuples(3)
    seen = [out for t in ts for out in op.process(0, t)]
    seen.extend(op.on_input_closed(0))
    seen.extend(op.on_close())
    assert [t.payload["x"] for t in seen] == [0, 1, 2]


def test_fused_snapshot_keyed_by_original_names():
    a, b = HoldLast("a"), HoldLast("b")
    op = fused_of(a, b)
    for t in tuples(2):
        op.process(0, t)
    state = op.snapshot_parts()
    assert set(state) == {"a", "b"}
    assert state["a"] == {"held": 1}
    assert state["b"] == {"held": 0}


def test_fused_restore_part_matches_name_and_base_name():
    a, b = HoldLast("m::0"), HoldLast("other")
    op = FusedOperator(
        "fused", [_FusedPart("m::0", "m", a), _FusedPart("other", "other", b)]
    )
    assert op.restore_part("m", {"held": 7})  # by base_name (replica restore)
    assert a.held.payload["x"] == 7
    assert op.restore_part("other", {"held": 3})  # by exact name
    assert b.held.payload["x"] == 3
    assert not op.restore_part("ghost", {"held": 1})


def test_fused_restore_state_rejects_unknown_constituent():
    op = fused_of(HoldLast("a"), HoldLast("b"))
    with pytest.raises(KeyError):
        op.restore_state({"ghost": {"held": 1}})


def test_fused_needs_two_single_input_parts():
    with pytest.raises(ValueError):
        fused_of(bump("only"))
    with pytest.raises(ValueError):
        fused_of(bump("a"), JoinOperator("j"))


# -- fusion pass -------------------------------------------------------------


def build_chain(n_ops=3):
    q = Query()
    q.add_source("src", ListSource("src", tuples()))
    upstream = "src"
    for i in range(n_ops):
        q.add_operator(f"m{i}", bump(f"m{i}"), upstream)
        upstream = f"m{i}"
    q.add_sink("out", CollectingSink(), upstream)
    return q


def test_fuse_collapses_linear_chain():
    nodes = build_chain(3).build()
    fused = fuse_linear_chains(nodes)
    assert [n.name for n in fused] == ["src", "fused[m0+m1+m2]", "out"]
    middle = fused[1]
    assert middle.inputs[0] is nodes[0].outputs[0]
    assert middle.outputs[0] is fused[2].inputs[0]
    assert middle.checkpoint_names() == ["m0", "m1", "m2"]


def test_fused_node_restores_constituent_state():
    nodes = fuse_linear_chains(build_chain(2).build())
    holder = HoldLast("probe")
    node = nodes[1]
    node.operator._parts[0].operator = holder  # swap in a stateful part
    assert node.restore_state_for("ghost", {"held": 5}) is False
    assert node.restore_state_for("m0", {"held": 5})
    assert holder.held.payload["x"] == 5


def test_fanout_breaks_chains():
    q = Query()
    q.add_source("src", ListSource("src", tuples()))
    q.add_operator("a", bump("a"), "src")
    q.add_operator("b1", bump("b1"), "a")
    q.add_operator("b2", bump("b2"), "a")
    q.add_sink("o1", CollectingSink("o1"), "b1")
    q.add_sink("o2", CollectingSink("o2"), "b2")
    fused = fuse_linear_chains(q.build())
    # "a" broadcasts to two streams, so nothing upstream of the fork fuses
    assert {n.name for n in fused} == {"src", "a", "b1", "b2", "o1", "o2"}


def test_multi_input_operator_can_terminate_but_not_join_a_chain():
    q = Query()
    q.add_source("s1", ListSource("s1", tuples()))
    q.add_source("s2", ListSource("s2", tuples()))
    q.add_operator("join", JoinOperator("join"), ["s1", "s2"])
    q.add_operator("m1", bump("m1"), "join")
    q.add_operator("m2", bump("m2"), "m1")
    q.add_sink("out", CollectingSink(), "m2")
    names = [n.name for n in fuse_linear_chains(q.build())]
    assert names == ["s1", "s2", "join", "fused[m1+m2]", "out"]


def test_compile_plan_none_is_identity():
    nodes = build_chain().build()
    assert compile_plan(nodes, None) is nodes


def test_a_plan_always_fuses():
    compiled = compile_plan(build_chain().build(), PlanConfig())
    assert [n.name for n in compiled] == ["src", "fused[m0+m1+m2]", "out"]


# -- replication pass --------------------------------------------------------


def by_layer(t):
    return t.layer


def keyed_query(n=12, stages=2):
    q = Query()
    q.add_source("src", ListSource("src", tuples(n)))
    upstream = "src"
    for i in range(stages):
        q.add_operator(
            f"k{i}",
            lambda i=i: bump(f"k{i}", 10**i),
            upstream,
            key_fn=by_layer,
            replicable=True,
        )
        upstream = f"k{i}"
    q.add_sink("out", CollectingSink(), upstream)
    return q


def test_replication_builds_router_clones_and_merge():
    nodes = replicate_keyed_stages(keyed_query().build(), 3)
    names = [n.name for n in nodes]
    assert "k0::router" in names
    assert "k1::merge" in names
    assert {"k0::0", "k0::1", "k0::2", "k1::0", "k1::1", "k1::2"} <= set(names)
    # the adjacent keyed run replicated as ONE group: a single router/merge
    assert "k1::router" not in names and "k0::merge" not in names
    merge = next(n for n in nodes if n.name == "k1::merge")
    assert len(merge.inputs) == 3
    router = next(n for n in nodes if n.name == "k0::router")
    assert router.router.num_shards == 3
    for node in nodes:
        if node.name.startswith("k0::") and node.name[4:].isdigit():
            assert node.base_name == "k0"


def test_replication_records_the_rescale_recipe():
    """The plan pass builds the group the elastic controller rescales."""

    def factory():
        return bump("m")

    q = Query(default_capacity=7)
    q.add_source("src", ListSource("src", tuples()))
    q.add_operator("m", factory, "src", key_fn=by_layer, replicable=True)
    q.add_sink("out", CollectingSink(), "m")
    nodes = replicate_keyed_stages(q.build(), 3)
    assert [n.name for n in nodes] == [
        "src", "m::router", "m::0", "m::1", "m::2", "m::merge", "out",
    ]
    streams = {}
    for node in nodes:
        for stream in node.inputs + node.outputs:
            streams[stream.name] = stream.capacity
    assert streams == {
        "src->m": 7,
        "m::router->m::0": 7,
        "m::router->m::1": 7,
        "m::router->m::2": 7,
        "m::0->m::merge": 7,
        "m::1->m::merge": 7,
        "m::2->m::merge": 7,
        "m->out": 7,
    }
    router = nodes[1]
    assert router.router.num_shards == 3
    meta = router.rescale_meta
    assert meta.members == ["m"]
    assert meta.factories == [factory]
    assert meta.key_fn is by_layer
    assert (meta.router_name, meta.merge_name) == ("m::router", "m::merge")
    assert meta.member_capacities == [7]
    assert meta.out_capacity == 7
    assert nodes[5].operator.num_inputs == 3
    assert [n.base_name for n in nodes[2:5]] == ["m", "m", "m"]


def test_replication_leaves_multi_input_stages_alone():
    q = Query()
    q.add_source("a", ListSource("a", tuples()))
    q.add_source("b", ListSource("b", tuples()))
    q.add_operator(
        "j", lambda: JoinOperator("j"), ["a", "b"], key_fn=by_layer, replicable=True
    )
    q.add_sink("out", CollectingSink(), "j")
    nodes = q.build()
    assert replicate_keyed_stages(nodes, 2) == nodes


def test_replication_requires_shared_key_fn():
    q = Query()
    q.add_source("src", ListSource("src", tuples(6)))
    q.add_operator("a", lambda: bump("a"), "src", key_fn=by_layer, replicable=True)
    q.add_operator(
        "b", lambda: bump("b", 10), "a", key_fn=lambda t: t.job, replicable=True
    )
    q.add_sink("out", CollectingSink(), "b")
    names = [n.name for n in replicate_keyed_stages(q.build(), 2)]
    # different key functions -> two independent groups, each with its own cut
    assert "a::router" in names and "a::merge" in names
    assert "b::router" in names and "b::merge" in names


def test_replication_parallelism_one_is_identity():
    nodes = keyed_query().build()
    assert replicate_keyed_stages(nodes, 1) is nodes


def test_replicated_plan_output_matches_baseline():
    baseline = StreamEngine(mode="sync").run(keyed_query())
    sink = baseline.sinks["out"]
    expected = sorted(t.payload["x"] for t in sink.results)
    optimized = StreamEngine(mode="sync").run(
        keyed_query(), plan=PlanConfig(parallelism=3)
    )
    got = sorted(t.payload["x"] for t in optimized.sinks["out"].results)
    assert got == expected


# -- one producer, one consumer per stream ----------------------------------

#: every shape a deployment compiles: (plan, force_replication)
PLAN_SHAPES = {
    "off": (None, False),
    "default": (PlanConfig(), False),
    "parallelism=2": (PlanConfig(parallelism=2), False),
    "elastic": elastic_plan(PlanConfig(), ElasticConfig(max_parallelism=2)),
}


@pytest.fixture(scope="module")
def calibrations():
    store = MemoryStore()
    yield store
    store.close()


@pytest.mark.parametrize("shape", PLAN_SHAPES)
@pytest.mark.parametrize("kind", ["thermal", "streaks", "forecast", "reconstruct"])
def test_every_compiled_stream_has_one_producer_and_one_consumer(
    kind, shape, calibrations
):
    strata = Strata(engine_mode="threaded")
    workload = resolve_workload({"kind": kind, "layers": 3, "image_px": 96})
    build_pipeline(strata, workload, calibrations)
    plan, forced = PLAN_SHAPES[shape]
    nodes = compile_plan(strata.query.build(), plan, force_replication=forced)
    assert_one_producer_one_consumer(nodes)


# -- render_plan / explain ---------------------------------------------------


def test_render_plan_shows_fusion_and_replication():
    config = PlanConfig(parallelism=2)
    nodes = compile_plan(keyed_query().build(), config)
    text = render_plan(nodes, title="q", config=config)
    assert "fused(" in text
    assert "x2 by key-hash" in text
    assert "parallelism=2" in text


def test_render_plan_reports_optimizer_off():
    assert "optimizer: off" in render_plan(build_chain().build())


def test_engine_explain_does_not_execute():
    q = build_chain()
    text = StreamEngine(mode="threaded").explain(q, plan=True)
    assert "fused[m0+m1+m2]" in text
    # the query is still deployable afterwards: explain only built a copy
    report = StreamEngine(mode="sync").run(q)
    assert len(report.sinks["out"].results) == 3


# -- vectorized fusion -------------------------------------------------------


class BlockBump(Operator):
    """Map with a columnar twin: +k on the ``x`` column, array-at-a-time."""

    num_inputs = 1
    supports_block = True

    def __init__(self, name, k=1):
        super().__init__(name)
        self.k = k

    def process(self, input_index, t):
        return [t.derive(payload={"x": t.payload["x"] + self.k})]

    def process_block(self, block):
        return block.with_columns(x=block.columns["x"] + self.k)


def build_block_chain(scalar_tail=True):
    q = Query()
    q.add_source("src", ListSource("src", tuples(7)))
    q.add_operator("b0", BlockBump("b0", 1), "src")
    q.add_operator("b1", BlockBump("b1", 10), "b0")
    tail = "b1"
    if scalar_tail:
        q.add_operator("m2", bump("m2", 100), "b1")
        tail = "m2"
    q.add_sink("out", CollectingSink(), tail)
    return q


def test_block_capable_member_selects_vectorized_operator_and_records_fallback():
    fused = fuse_linear_chains(build_block_chain().build())
    node = fused[1]
    assert isinstance(node.operator, VectorizedFusedOperator)
    assert node.operator.execution_mode == "vectorized"
    # the scalar-only member is named as the reason the chain is mixed
    assert node.mode_reason == "scalar members: m2"
    assert node.operator.member_modes() == {
        "b0": "block",
        "b1": "block",
        "m2": "scalar",
    }


def test_fully_block_capable_chain_has_no_fallback_reason():
    fused = fuse_linear_chains(build_block_chain(scalar_tail=False).build())
    node = fused[1]
    assert isinstance(node.operator, VectorizedFusedOperator)
    assert node.mode_reason is None


def test_all_scalar_chain_falls_back_with_reason():
    fused = fuse_linear_chains(build_chain(3).build())
    node = fused[1]
    assert type(node.operator) is FusedOperator
    assert node.mode_reason == "no member provides a block variant"


def test_render_plan_names_every_chain_mode():
    config = PlanConfig()
    nodes = compile_plan(build_block_chain().build(), config)
    text = render_plan(nodes, title="q", config=config)
    assert "mode=vectorized (scalar members: m2)" in text
    assert "1 fused chain, 1 vectorized" in text

    scalar = render_plan(compile_plan(build_chain(3).build(), config), config=config)
    assert "mode=scalar (no member provides a block variant)" in scalar
    assert "vectorized" not in scalar


def test_describe_names_only_what_a_deployment_sets():
    assert PlanConfig(parallelism=2).describe() == "parallelism=2"


def test_vectorized_chain_matches_plan_off_output():
    baseline = StreamEngine(mode="sync").run(build_block_chain())
    expected = [t.payload["x"] for t in baseline.sinks["out"].results]
    optimized = StreamEngine(mode="threaded").run(
        build_block_chain(), plan=PlanConfig()
    )
    assert [t.payload["x"] for t in optimized.sinks["out"].results] == expected


def test_vectorized_operator_counts_blocks_and_rows():
    fused = fuse_linear_chains(build_block_chain(scalar_tail=False).build())
    op = fused[1].operator
    out = op.process_many(tuples(5))
    assert [t.payload["x"] for t in out] == [x + 11 for x in range(5)]
    assert op.blocks_in == 1
    assert op.block_rows_in == 5


class BlockFanOut(Operator):
    """One row in, ``k`` rows out, with a columnar twin (a fan-out member)."""

    num_inputs = 1
    supports_block = True

    def __init__(self, name, k):
        super().__init__(name)
        self.k = k

    def process(self, input_index, t):
        return [t.derive(payload={"x": t.payload["x"]}) for _ in range(self.k)]

    def process_block(self, block):
        return block.take([i for i in range(len(block)) for _ in range(self.k)])


def _block_operator(*operators):
    return VectorizedFusedOperator(
        "v", [_FusedPart(o.name, o.name, o) for o in operators]
    )


def test_single_tuples_behind_a_fan_out_member_form_blocks():
    """The scalar-vs-block choice follows the rows in front of the group,
    not the framing: singles that fan out are blocks from the second one
    on (the first measures the expansion on the scalar path)."""
    op = _block_operator(BlockFanOut("fan", 50), BlockBump("b", 1))
    outs = [op.process(0, t) for t in tuples(4)]
    assert [len(out) for out in outs] == [50] * 4
    assert [t.payload["x"] for t in outs[2]] == [3] * 50
    assert op.blocks_in == 3
    assert op.block_rows_in == 3


def test_single_non_expanding_tuples_take_the_scalar_cascade():
    op = _block_operator(BlockBump("b0", 1), BlockBump("b1", 10))
    for t in tuples(6):
        assert [o.payload["x"] for o in op.process(0, t)] == [t.payload["x"] + 11]
    assert op.blocks_in == 0
    # ... and a one-tuple batch is the same single row, however it is framed
    op.process_many(TupleBatch(tuples(1)))
    assert op.blocks_in == 0
    op.process_many(TupleBatch(tuples(2)))
    assert op.blocks_in == 1


def test_expansion_estimate_decays_when_the_fan_out_stops():
    fan = BlockFanOut("fan", 64)
    op = _block_operator(fan, BlockBump("b", 1))
    for t in tuples(3):
        op.process(0, t)
    assert op.blocks_in == 2
    fan.k = 1  # the stream turns narrow: blocks stop once the estimate decays
    for t in tuples(12):
        op.process(0, t)
    formed = op.blocks_in
    for t in tuples(4):
        op.process(0, t)
    assert op.blocks_in == formed < 2 + 12


@pytest.mark.parametrize("cls", [FusedOperator, VectorizedFusedOperator])
def test_member_stats_enabled_mid_stream_count_only_later_runs(cls):
    """Both classes apply a member to a run through the same method, which
    looks at the counters per run: switching them on needs no rewiring and
    counts exactly the runs that follow, scalar stages and block stages."""
    operators = [BlockFanOut("fan", 3), BlockBump("b", 1), bump("m", 100)]
    op = cls("c", [_FusedPart(o.name, o.name, o) for o in operators])
    assert op.member_stats() is None
    assert len(op.process_many(tuples(4))) == 12  # unobserved
    methods = {k for k, v in vars(op).items() if callable(v)}
    op.enable_member_stats()
    op.enable_member_stats()  # idempotent: the counters are not reset
    assert {k for k, v in vars(op).items() if callable(v)} == methods  # no rebinding
    assert op.member_stats() == {"fan": (0, 0), "b": (0, 0), "m": (0, 0)}
    assert len(op.process(0, tuples(1)[0])) == 3
    assert len(op.process_many(tuples(2))) == 6
    assert op.member_stats() == {"fan": (3, 9), "b": (9, 9), "m": (9, 9)}


# -- batched transport -------------------------------------------------------


def test_item_weight_counts_batch_tuples():
    ts = tuples(3)
    assert item_weight(ts[0]) == 1
    assert item_weight(TupleBatch(ts)) == 3


def test_stream_accounts_batches_by_tuple_count():
    s = Stream("s", capacity=10)
    s.put(TupleBatch(tuples(3)))
    assert len(s) == 3
    got = s.get()
    assert isinstance(got, TupleBatch) and len(got) == 3
    assert len(s) == 0


def test_full_stream_rejects_batch_put_with_timeout():
    s = Stream("s", capacity=2)
    # batches are admitted whenever ANY capacity remains (bounded overshoot
    # beats deadlock), so one oversized batch goes through...
    assert s.put(TupleBatch(tuples(3)), timeout=0.05)
    # ...but the stream is now over capacity and refuses more until drained
    assert not s.put(tuples(1)[0], timeout=0.05)
    s.get()
    assert s.put(tuples(1)[0], timeout=0.05)


def test_drain_stops_at_barriers_and_eos():
    s = Stream("s", capacity=100)
    ts = tuples(4)
    s.put(ts[0])
    s.put(ts[1])
    s.put(CheckpointBarrier(epoch=0))
    s.put(ts[2])
    assert s.drain() == [ts[0], ts[1]]  # bulk drain must not cross the barrier
    assert isinstance(s.get(), CheckpointBarrier)
    s.put(END_OF_STREAM)
    assert s.drain() == [ts[2]]
    assert s.get() is END_OF_STREAM


def test_threaded_batched_run_preserves_order_and_results():
    report = StreamEngine(mode="threaded").run(
        build_chain(3), plan=PlanConfig()
    )
    xs = [t.payload["x"] for t in report.sinks["out"].results]
    assert xs == [3, 4, 5]


# -- reservoir latency sampling ----------------------------------------------


def test_unbounded_recorder_keeps_everything():
    rec = LatencyRecorder()
    for i in range(50):
        rec.record(float(i))
    assert len(rec) == 50 and len(rec.samples()) == 50
    assert rec.snapshot() == rec.samples()  # legacy list form


def test_bounded_recorder_caps_memory_but_counts_all():
    rec = LatencyRecorder(capacity=16)
    for i in range(1000):
        rec.record(float(i))
    assert len(rec) == 1000
    kept = rec.samples()
    assert len(kept) == 16
    assert all(0.0 <= v < 1000.0 for v in kept)
    summary = rec.summary()
    assert summary.count == 1000  # reports observations, not reservoir size
    snap = rec.snapshot()
    assert snap["count"] == 1000 and len(snap["samples"]) == 16


def test_recorder_restore_accepts_both_snapshot_forms():
    rec = LatencyRecorder(capacity=4)
    rec.restore([1.0, 2.0, 3.0])
    assert len(rec) == 3 and sorted(rec.samples()) == [1.0, 2.0, 3.0]
    rec.restore({"count": 90, "samples": [1.0] * 8})
    assert len(rec) == 90
    assert len(rec.samples()) == 4  # truncated to this recorder's capacity


def test_recorder_capacity_must_be_positive():
    with pytest.raises(MetricsError):
        LatencyRecorder(capacity=0)
