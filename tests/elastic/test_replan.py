"""Adaptive re-planning: the action algebra, the cost model, and live
chain rewrites (unfuse/fuse) with divergence-zero output."""

import time
import typing
from collections import Counter

import pytest

from repro.core import DeployConfig, Strata
from repro.core.deploy import DeployConfigError
from repro.elastic import (
    AdaptationAction,
    CostModelPolicy,
    ElasticConfig,
    Fuse,
    Migrate,
    NoOp,
    ReplanConfig,
    Rescale,
    Unfuse,
    WorkloadView,
    plan_migration,
)
from repro.elastic.actions import ChainSignals
from repro.elastic.policy import GroupSignals
from repro.spe import CollectingSink, PlanError
from repro.spe.source import Source
from repro.spe.tuples import StreamTuple

N_RECORDS = 240

#: manual-adaptation config: huge tick so the control loop never interferes,
#: zero cooldowns so back-to-back test actions are allowed.
REPLAN = ReplanConfig(cooldown_s=0.0, streak_ticks=1)
MANUAL = ElasticConfig(
    max_parallelism=4, tick_s=60.0, cooldown_s=0.0, replan=REPLAN
)


class SlowSource(Source):
    """Paced replay: keeps the stream alive while a chain drains."""

    def __init__(self, name, records, delay=0.002, burst=1):
        super().__init__(name)
        self._records = list(records)
        self._delay = delay
        self._burst = burst  # tuples emitted back-to-back per sleep

    def __iter__(self):
        for i, t in enumerate(self._records):
            if self._delay and i % self._burst == 0:
                time.sleep(self._delay)
            t.ingest_time = time.monotonic()
            yield t


def records(n=N_RECORDS):
    # specimen pre-assigned: the chain stages are pure event maps, so no
    # punctuation minting happens inside the chain under either mode
    return [
        StreamTuple(
            tau=float(i), job="j", layer=i // 8,
            specimen=f"s{i % 3}", portion="p0", payload={"v": i},
        )
        for i in range(n)
    ]


def mark_a(t):
    return [t.derive(payload={**t.payload, "a": t.payload["v"] + 1})]


def mark_b(t):
    return [t.derive(payload={**t.payload, "b": t.payload["v"] * 2})]


def block_a(t):
    return [t.derive(payload={**t.payload, "a": t.payload["v"] + 1})]


def block_b(t):
    return [t.derive(payload={**t.payload, "b": t.payload["v"] * 2})]


block_a.process_block = lambda block: block.with_columns(
    a=block.columns["v"] + 1
)
block_b.process_block = lambda block: block.with_columns(
    b=block.columns["v"] * 2
)


def build_chain(strata, recs, delay=0.002, block=False):
    """source -> detect(m1) -> detect(m2) -> sink: one 2-member fused chain.

    Nothing is keyed, so the plan compiler fuses m1+m2 into a standalone
    chain — the thing the re-planner adapts.
    """
    sink = CollectingSink("out")
    f1, f2 = (block_a, block_b) if block else (mark_a, mark_b)
    (
        strata.add_source(SlowSource("src", recs, delay), "raw")
        .detect_event("m1", f1)
        .detect_event("m2", f2, replicable=False)
        .deliver(sink)
    )
    return sink


def payload_counts(sink):
    return Counter(tuple(sorted(t.payload.items())) for t in sink.results)


@pytest.fixture(scope="module")
def baseline():
    strata = Strata(engine_mode="threaded")
    sink = build_chain(strata, records(), delay=0.0)
    strata.deploy()
    return payload_counts(sink)


# -- the action algebra -------------------------------------------------------


def test_action_kinds_and_describe():
    assert Rescale("g", 3).kind == "rescale"
    assert "x3" in Rescale("g", 3).describe()
    assert Unfuse("c").kind == "unfuse"
    assert Fuse("c").kind == "fuse"
    assert Migrate("stage-1", "worker-2").describe() == (
        "migrate stage-1 -> worker-2"
    )
    assert NoOp().describe() == "noop"
    assert "idle" in NoOp("idle").describe()
    assert set(typing.get_args(AdaptationAction)) == {
        Rescale, Fuse, Unfuse, Migrate, NoOp
    }


def test_actions_are_frozen():
    action = Rescale("g", 2)
    with pytest.raises(AttributeError):
        action.target = 5


# -- ReplanConfig -------------------------------------------------------------


def test_replan_config_validation():
    with pytest.raises(ValueError, match="cooldown_s"):
        ReplanConfig(cooldown_s=-1.0)
    with pytest.raises(ValueError, match="max_actions_per_tick"):
        ReplanConfig(max_actions_per_tick=0)
    with pytest.raises(ValueError, match="streak_ticks"):
        ReplanConfig(streak_ticks=0)
    with pytest.raises(ValueError, match="unfuse_busy"):
        ReplanConfig(unfuse_busy=1.5)
    with pytest.raises(ValueError, match="oscillate"):
        ReplanConfig(refuse_queue_fill=0.6, unfuse_queue_fill=0.5)
    with pytest.raises(ValueError, match="migrate_busy_ratio"):
        ReplanConfig(migrate_busy_ratio=0.5)


def test_replan_config_resolve():
    assert ReplanConfig.resolve(None) is None
    assert ReplanConfig.resolve(False) is None
    assert ReplanConfig.resolve(True) == ReplanConfig()
    config = ReplanConfig(cooldown_s=3.0)
    assert ReplanConfig.resolve(config) is config
    with pytest.raises(TypeError):
        ReplanConfig.resolve("yes")


def test_elastic_config_resolves_replan():
    config = ElasticConfig(replan=True)
    assert isinstance(config.replan, ReplanConfig)
    assert "replan(" in config.describe()
    assert ElasticConfig().replan is None
    assert ElasticConfig(replan=False).replan is None
    with pytest.raises(ValueError, match="replan"):
        ElasticConfig(replan="yes")


# -- a 3-argument ScalePolicy decides replica counts inside the cost model ----


class Doubler:
    """ScalePolicy contract: always asks for double the replicas."""

    def decide(self, group, signals, current):
        return current * 2


def test_scale_policy_rides_inside_the_cost_model():
    policy = CostModelPolicy(scale=Doubler())
    view = WorkloadView(
        groups={"g": GroupSignals(parallelism=2)},
        chains={
            "c": ChainSignals(
                name="c", mode="scalar", members=("a", "b"), fused=True,
                queue_fill=0.0, busy_fraction=0.5,
            )
        },
    )
    assert policy.decide(view) == [Rescale(group="g", target=4)]


def test_scale_policy_holding_at_target_emits_nothing():
    class Hold:
        def decide(self, group, signals, current):
            return current

    policy = CostModelPolicy(scale=Hold())
    assert policy.decide(
        WorkloadView(groups={"g": GroupSignals(parallelism=2)})
    ) == []


# -- the cost model -----------------------------------------------------------


def chain_signals(**kw):
    base = dict(
        name="c", mode="scalar", members=("a", "b"), fused=True,
        queue_fill=0.0, busy_fraction=0.0,
    )
    base.update(kw)
    return ChainSignals(**base)


def decide_chain(policy, signals):
    return policy.decide(WorkloadView(chains={signals.name: signals}))


@pytest.mark.parametrize("mode", ["scalar", "vectorized"])
def test_rule_saturated_chain_unfuses(mode):
    """The model never decides a fused chain's execution mode (that is the
    vectorized operator's per-run choice); backlog alone moves nothing,
    backlog on a busy chain unfuses it whatever its mode."""
    policy = CostModelPolicy(ReplanConfig(streak_ticks=1))
    assert decide_chain(policy, chain_signals(mode=mode, queue_fill=0.9)) == []
    signals = chain_signals(mode=mode, queue_fill=0.9, busy_fraction=0.95)
    assert decide_chain(policy, signals) == [Unfuse(chain="c")]


def test_rule_idle_unfused_chain_refuses():
    policy = CostModelPolicy(ReplanConfig(streak_ticks=1))
    signals = chain_signals(
        mode="unfused", fused=False, queue_fill=0.0, busy_fraction=0.0
    )
    assert decide_chain(policy, signals) == [Fuse(chain="c")]


def test_single_member_chain_never_unfused():
    policy = CostModelPolicy(ReplanConfig(streak_ticks=1))
    signals = chain_signals(
        members=("a",), queue_fill=1.0, busy_fraction=1.0
    )
    assert decide_chain(policy, signals) == []


def test_streak_hysteresis_delays_and_resets():
    policy = CostModelPolicy(ReplanConfig(streak_ticks=2))
    hot = chain_signals(queue_fill=0.9, busy_fraction=0.95)
    calm = chain_signals()
    assert decide_chain(policy, hot) == []  # streak 1 of 2
    assert decide_chain(policy, hot) == [Unfuse(chain="c")]
    assert decide_chain(policy, hot) == []  # streak restarted after firing
    assert decide_chain(policy, calm) == []  # condition gone: streak resets
    assert decide_chain(policy, hot) == []


def test_cost_model_delegates_groups_to_scale_policy():
    policy = CostModelPolicy(ReplanConfig(streak_ticks=1))
    view = WorkloadView(
        groups={"g": GroupSignals(parallelism=2, qos_violation_delta=3)}
    )
    assert policy.decide(view) == [Rescale(group="g", target=4)]


def test_cost_model_emits_migration_when_enabled():
    policy = CostModelPolicy(
        ReplanConfig(streak_ticks=1, migrate=True, migrate_busy_ratio=2.0)
    )
    view = WorkloadView(
        workers={
            "w0": {"busy_fraction": 0.9, "stages": ["stage-0", "stage-1"]},
            "w1": {"busy_fraction": 0.1, "stages": ["stage-2"]},
        }
    )
    assert policy.decide(view) == [Migrate(stage="stage-1", to_worker="w1")]


# -- plan_migration -----------------------------------------------------------


def test_plan_migration_rules():
    cfg = ReplanConfig(migrate=True, migrate_busy_ratio=2.0)
    # fewer than two workers: nowhere to go
    assert plan_migration({"w0": {"busy_fraction": 1.0, "stages": ["a", "b"]}}, cfg) is None
    # hot worker with a single stage: moving it just relocates the hot spot
    assert plan_migration(
        {
            "w0": {"busy_fraction": 1.0, "stages": ["a"]},
            "w1": {"busy_fraction": 0.1, "stages": ["b"]},
        },
        cfg,
    ) is None
    # imbalance below the ratio: leave placement alone
    assert plan_migration(
        {
            "w0": {"busy_fraction": 0.5, "stages": ["a", "b"]},
            "w1": {"busy_fraction": 0.4, "stages": ["c"]},
        },
        cfg,
    ) is None
    # hot, multi-stage, imbalanced: move the hot worker's last stage
    action = plan_migration(
        {
            "w0": {"busy_fraction": 0.9, "stages": ["a", "b"]},
            "w1": {"busy_fraction": 0.1, "stages": ["c"]},
        },
        cfg,
    )
    assert action == Migrate(stage="b", to_worker="w1")


# -- chain discovery and deployment shapes ------------------------------------


def test_chains_only_deployment_discovers_the_chain():
    strata = Strata(engine_mode="threaded")
    build_chain(strata, records(24), delay=0.0)
    strata.start(DeployConfig(plan=True, elastic=MANUAL))
    controller = strata.elastic
    assert controller is not None
    assert controller.groups == []
    assert len(controller.chains) == 1
    chain = controller.chains[0]
    # the compiler may append bookkeeping stages (e.g. depunct) to the chain
    assert chain.fused and len(chain.members) >= 2
    assert {"detect:m1", "detect:m2"} <= set(chain.members)
    strata.wait(timeout=60)


def test_replan_off_discovers_no_chains():
    strata = Strata(engine_mode="threaded")
    sink = CollectingSink("out")
    (
        strata.add_source(SlowSource("src", records(24), 0.0), "raw")
        .partition("parts", lambda t: [t.derive(specimen="s0", portion="p0")])
        .partition("cells", mark_a)
        .deliver(sink)
    )
    strata.start(
        DeployConfig(
            plan=True,
            elastic=ElasticConfig(tick_s=60.0, cooldown_s=0.0),
        )
    )
    assert strata.elastic.chains == []
    strata.wait(timeout=60)


def test_no_groups_no_chains_still_raises_plan_error():
    strata = Strata(engine_mode="threaded")
    sink = CollectingSink("out")
    strata.add_source(SlowSource("src", records(4), 0.0), "raw").deliver(sink)
    with pytest.raises(PlanError, match="no keyed-replicated operator group"):
        strata.start(DeployConfig(plan=True, elastic=MANUAL))


# -- live chain rewrites ------------------------------------------------------


def test_unfuse_preserves_output(baseline):
    strata = Strata(engine_mode="threaded", obs=True)
    sink = build_chain(strata, records())
    strata.start(DeployConfig(plan=True, elastic=MANUAL))
    controller = strata.elastic
    chain = controller.chains[0]
    assert chain.mode == "scalar"  # read off the live operator
    assert controller.apply_action(Unfuse(chain=chain.name))
    assert not chain.fused
    assert len(chain.nodes) == len(chain.members) >= 2
    assert chain.mode == "unfused"
    samples = strata.obs.snapshot().samples
    assert [
        s.label("mode") for s in samples
        if s.name == "elastic_chain_mode" and s.label("chain") == chain.name
    ] == ["unfused"]
    assert any(
        s.name == "elastic_replan_actions_total"
        and s.label("action") == "unfuse"
        and s.value == 1.0
        for s in samples
    )
    assert {
        s.label("operator") for s in samples
        if s.name == "elastic_last_adaptation" and s.label("action") == "unfuse"
    } == set(chain.members)
    strata.wait(timeout=120)
    assert payload_counts(sink) == baseline
    summary = controller.summary()
    assert summary["actions"].get("unfuse") == 1
    assert summary["chains"][chain.name]["fused"] is False
    assert any(e["kind"] == "unfuse" for e in controller.events)


def test_unfuse_then_fuse_round_trip(baseline):
    strata = Strata(engine_mode="threaded")
    sink = build_chain(strata, records())
    strata.start(DeployConfig(plan=True, elastic=MANUAL))
    controller = strata.elastic
    chain = controller.chains[0]
    assert controller.apply_action(Unfuse(chain=chain.name))
    assert controller.apply_action(Fuse(chain=chain.name))
    assert chain.fused and len(chain.nodes) == 1
    strata.wait(timeout=120)
    assert payload_counts(sink) == baseline
    actions = controller.summary()["actions"]
    assert actions.get("unfuse") == 1 and actions.get("fuse") == 1


def test_fuse_on_fused_chain_is_a_no_op():
    strata = Strata(engine_mode="threaded")
    build_chain(strata, records(24), delay=0.0)
    strata.start(DeployConfig(plan=True, elastic=MANUAL))
    controller = strata.elastic
    chain = controller.chains[0]
    assert not controller.apply_action(Fuse(chain=chain.name))
    assert not controller.apply_action(Unfuse(chain="no-such-chain"))
    strata.wait(timeout=60)


@pytest.fixture(scope="module")
def block_baseline():
    strata = Strata(engine_mode="threaded")
    sink = build_chain(strata, records(), delay=0.0, block=True)
    strata.deploy()
    return payload_counts(sink)


@pytest.mark.parametrize("block", [True, False])
def test_refused_chain_mode_follows_its_members(block_baseline, block):
    """A chain's mode is whatever its live operator says: re-fusing a
    chain builds the class the plan compiler built from the same members
    (block-capable members: vectorized; none: scalar)."""
    mode = "vectorized" if block else "scalar"
    strata = Strata(engine_mode="threaded")
    sink = build_chain(strata, records(), block=block)
    strata.start(DeployConfig(plan=True, elastic=MANUAL))
    controller = strata.elastic
    chain = controller.chains[0]
    assert chain.mode == mode
    assert controller.apply_action(Unfuse(chain=chain.name))
    assert controller.apply_action(Fuse(chain=chain.name))
    assert chain.mode == mode
    assert controller.summary()["chains"][chain.name]["mode"] == mode
    strata.wait(timeout=120)
    assert payload_counts(sink) == block_baseline


# -- tick-driven adaptation ---------------------------------------------------


class ScriptedPolicy:
    """Returns a fixed action list every tick (budget/cooldown testing)."""

    def __init__(self, actions):
        self.actions = list(actions)

    def decide(self, view):
        return list(self.actions)


def test_tick_respects_the_per_tick_action_budget():
    strata = Strata(engine_mode="threaded")
    build_chain(strata, records())
    chain_cfg = ElasticConfig(
        tick_s=60.0, cooldown_s=0.0,
        replan=ReplanConfig(cooldown_s=0.0, max_actions_per_tick=1),
    )
    strata.start(DeployConfig(plan=True, elastic=chain_cfg))
    controller = strata.elastic
    chain = controller.chains[0]
    controller._policy = ScriptedPolicy(
        [Unfuse(chain=chain.name), Fuse(chain=chain.name), NoOp()]
    )
    controller.tick()
    # budget of one: the unfuse landed, the fuse must wait for a later tick
    assert not chain.fused
    controller.tick()
    assert chain.fused
    strata.wait(timeout=120)


def test_tick_applies_cost_model_under_induced_backlog(baseline):
    """End-to-end: a saturated chain triggers a runtime Unfuse via tick()."""
    strata = Strata(engine_mode="threaded")

    def slow_mark(t):
        time.sleep(0.004)
        return [t.derive(payload={**t.payload, "a": t.payload["v"] + 1})]

    sink = CollectingSink("out")
    # the source must outlive the first ticks (a finished source wins the
    # drain race by design), while the chain falls behind it 2:1
    (
        strata.add_source(SlowSource("src", records(), 0.002), "raw")
        .detect_event("m1", slow_mark)
        .detect_event("m2", mark_b, replicable=False)
        .deliver(sink)
    )
    # batched edges keep queue_fill tiny (a 240-tuple run is 8 batch
    # entries), so gate the unfuse rule on busy_fraction alone here
    config = ElasticConfig(
        tick_s=0.2, cooldown_s=0.0,
        replan=ReplanConfig(
            cooldown_s=0.0, streak_ticks=1,
            unfuse_queue_fill=0.0, refuse_queue_fill=0.0, unfuse_busy=0.05,
        ),
    )
    strata.start(DeployConfig(plan=True, elastic=config))
    controller = strata.elastic
    chain = controller.chains[0]
    deadline = time.monotonic() + 30
    while chain.fused and time.monotonic() < deadline and strata.running():
        time.sleep(0.05)
    strata.wait(timeout=120)
    assert controller.summary()["actions"].get("unfuse", 0) >= 1
    expected = Counter(
        tuple(sorted({"v": i, "a": i + 1, "b": i * 2}.items()))
        for i in range(N_RECORDS)
    )
    assert payload_counts(sink) == expected


# -- scalar-vs-block is the operator's call, live ------------------------------

FAN_OUT = 40


def fan_out(t):
    return [t.derive(payload=dict(t.payload)) for _ in range(FAN_OUT)]


fan_out.process_block = lambda block: block.take(
    [i for i in range(len(block)) for _ in range(FAN_OUT)]
)

#: default cost model, ticked by hand mid-stream
TICKED_BY_HAND = ElasticConfig(
    tick_s=60.0, cooldown_s=0.0,
    replan=ReplanConfig(cooldown_s=0.0, streak_ticks=1),
)


def _tick_mid_stream(strata, sink, at_least):
    controller = strata.elastic
    chain = controller.chains[0]
    assert chain.mode == "vectorized"
    deadline = time.monotonic() + 30
    while len(sink) < at_least and time.monotonic() < deadline:
        time.sleep(0.005)
    assert len(sink) >= at_least and strata.running()
    controller.tick()
    controller.tick()
    # no drain barrier, no replacement operator: the controller has no say
    assert controller.summary()["actions"] == {}
    assert not [e for e in controller.events if "chain" in e]
    assert chain.mode == "vectorized"
    return chain.nodes[0].operator


def test_single_arrivals_behind_a_fan_out_form_full_blocks():
    """A source edge delivers one tuple at a time, so every block has one
    row at entry — and ``FAN_OUT`` rows where it is widest, which is what
    the kernels amortize over."""
    strata = Strata(engine_mode="threaded")
    sink = CollectingSink("out")
    (
        strata.add_source(SlowSource("src", records(), 0.004), "raw")
        .partition("cells", fan_out, replicable=False)
        .detect_event("m2", block_b, replicable=False)
        .deliver(sink)
    )
    strata.start(DeployConfig(plan=True, elastic=TICKED_BY_HAND))
    operator = _tick_mid_stream(strata, sink, at_least=5 * FAN_OUT)
    strata.wait(timeout=120)
    assert len(sink.results) == FAN_OUT * N_RECORDS
    # the first lone row measures the expansion on the scalar cascade
    assert operator.blocks_in == N_RECORDS - 1
    assert operator.block_rows_in == operator.blocks_in  # singles at entry
    assert operator.block_rows_peak == FAN_OUT * operator.blocks_in


def test_starved_trickle_without_fan_out_stays_on_the_scalar_cascade(block_baseline):
    """Lone rows through a chain that never widens them would only pay the
    tuple<->column conversion: no block forms, and nothing is drained or
    swapped to get there."""
    strata = Strata(engine_mode="threaded")
    sink = build_chain(strata, records(), delay=0.004, block=True)
    strata.start(DeployConfig(plan=True, elastic=TICKED_BY_HAND))
    operator = _tick_mid_stream(strata, sink, at_least=5)
    strata.wait(timeout=120)
    assert operator.blocks_in == 0
    assert payload_counts(sink) == block_baseline


# -- set_bounds vs in-flight rescale (fleet lending race) ---------------------


def test_rescale_clamps_to_live_bounds():
    """A rescale racing a fleet set_bounds shrink can never exceed the
    lent maximum: targets re-clamp against live bounds at entry."""
    strata = Strata(engine_mode="threaded")
    sink = CollectingSink("out")
    (
        strata.add_source(SlowSource("src", records(), 0.002), "raw")
        .partition("parts", lambda t: [t.derive(specimen=f"s{t.payload['v'] % 3}", portion="p0")])
        .partition("cells", mark_a)
        .deliver(sink)
    )
    strata.start(
        DeployConfig(
            plan=True,
            elastic=ElasticConfig(max_parallelism=4, tick_s=60.0, cooldown_s=0.0),
        )
    )
    controller = strata.elastic
    group = controller.groups[0]
    controller.set_bounds(1, 2)
    # the pending decision wanted 4 replicas; the lent max is 2
    assert controller.rescale(group, 4)
    assert group.parallelism == 2
    strata.wait(timeout=120)


# -- [elastic.replan] deploy config -------------------------------------------


def test_deploy_config_replan_round_trip():
    data = {
        "plan": True,
        "elastic": {
            "max_parallelism": 8,
            "replan": {"cooldown_s": 2.5, "migrate": True},
        },
    }
    config = DeployConfig.from_dict(data)
    assert isinstance(config.elastic.replan, ReplanConfig)
    assert config.elastic.replan.cooldown_s == 2.5
    assert config.elastic.replan.migrate is True
    round_tripped = DeployConfig.from_dict(config.to_dict())
    assert round_tripped.elastic.replan == config.elastic.replan


def test_deploy_config_replan_bool_passthrough():
    config = DeployConfig.from_dict({"plan": True, "elastic": {"replan": True}})
    assert config.elastic.replan == ReplanConfig()
    config = DeployConfig.from_dict({"plan": True, "elastic": {"replan": False}})
    assert config.elastic.replan is None


# the two retired mode-flip thresholds are unknown keys like any other
@pytest.mark.parametrize("key", ["bogus", "vector_min_fill", "vector_queue_fill"])
def test_deploy_config_replan_unknown_key_dotted_path(key):
    with pytest.raises(DeployConfigError, match=rf"elastic\.replan\.{key}"):
        DeployConfig.from_dict({"elastic": {"replan": {key: 0.5}}})


def test_deploy_config_replan_invalid_value():
    with pytest.raises(DeployConfigError, match=r"\[elastic\.replan\]"):
        DeployConfig.from_dict({"elastic": {"replan": {"cooldown_s": -1.0}}})


def test_deploy_config_rejects_table_under_scalar_key():
    with pytest.raises(DeployConfigError, match="does not take a table"):
        DeployConfig.from_dict({"elastic": {"max_parallelism": {"x": 1}}})


# -- CLI surface --------------------------------------------------------------


def test_cli_elastic_of_replan_flags():
    import argparse

    from repro.cli import _elastic_of

    def ns(**kw):
        base = dict(
            elastic=False, replan=False, no_replan=False,
            min_parallelism=1, max_parallelism=4,
        )
        base.update(kw)
        return argparse.Namespace(**base)

    assert _elastic_of(ns()) is None
    assert _elastic_of(ns(elastic=True)).replan is None
    config = _elastic_of(ns(replan=True))  # --replan implies --elastic
    assert isinstance(config.replan, ReplanConfig)
    assert _elastic_of(ns(elastic=True, replan=True, no_replan=True)).replan is None


def test_cli_no_replan_overrides_config_file(tmp_path):
    import argparse

    from repro.cli import _deploy_of

    config_file = tmp_path / "deploy.toml"
    config_file.write_text("plan = true\n[elastic.replan]\ncooldown_s = 2.0\n")
    args = argparse.Namespace(config=str(config_file), no_replan=True)
    assert _deploy_of(args).elastic.replan is None
    args = argparse.Namespace(config=str(config_file), no_replan=False)
    assert _deploy_of(args).elastic.replan.cooldown_s == 2.0


def test_cli_top_renders_adapt_column():
    from repro.cli import _render_top
    from repro.obs.registry import MetricsSnapshot, Sample

    snap = MetricsSnapshot(wall_time=0.0, samples=[
        Sample("spe_tuples_in_total", (("operator", "op:m"),), 12.0),
        Sample(
            "elastic_last_adaptation",
            (("operator", "op:m"), ("action", "unfuse")),
            1.0,
        ),
    ])
    text = _render_top(snap)
    assert "ADAPT" in text
    assert "unfuse" in text
