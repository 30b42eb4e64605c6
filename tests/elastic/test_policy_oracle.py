"""The elastic policy against the two-class composition it replaced.

``CostModelPolicy`` decides replica counts with its own rescale rule and
the same streak helper as its chain rules; ``policy_oracle`` keeps the
old ``CostModelPolicy(HysteresisPolicy())`` verbatim. Driven through the
same sequence of workload views, both must return the same action lists,
in the same order, on every tick.

Signal values are drawn around every threshold (either side and exactly
on it), two ticks in three idle so the long down streak ripens, replica
counts move between ticks as the controller's clamp and cooldowns would
move them, the chain flips between fused and unfused, and QoS violations
arrive at random, so every streak is started, broken, fired and cleared
by the other rule's tick.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.elastic import (
    ChainSignals,
    CostModelPolicy,
    GroupSignals,
    ReplanConfig,
    Rescale,
    WorkloadView,
)

from . import policy_oracle

GROUPS = ("g0", "g1", "g2")

#: fill and busy values on, under and over every group and chain threshold
fills = st.sampled_from((0.0, 0.05, 0.08, 0.10, 0.12, 0.3, 0.49, 0.5, 0.7, 1.0))
busies = st.sampled_from((0.0, 0.2, 0.3, 0.35, 0.4, 0.6, 0.8, 0.84, 0.85, 1.0))
#: mostly quiet, as a watchdog is between missed deadlines
qos = st.sampled_from((0, 0, 0, 0, 1, 3))

#: two ticks in three idle, so the 6-tick down streak ripens
idle_signals = st.builds(
    GroupSignals,
    queue_fill=st.sampled_from((0.0, 0.05, 0.10)),
    busy_fraction=st.sampled_from((0.0, 0.2, 0.35)),
    parallelism=st.integers(1, 8),
)
group_signals = st.one_of(
    idle_signals,
    idle_signals,
    st.builds(
        GroupSignals,
        queue_fill=fills,
        busy_fraction=busies,
        qos_violation_delta=qos,
        parallelism=st.integers(1, 8),
    ),
)

chain_signals = st.builds(
    ChainSignals,
    name=st.just("c"),
    mode=st.sampled_from(("vectorized", "scalar", "unfused")),
    members=st.sampled_from((("a",), ("a", "b"), ("a", "b", "c"))),
    fused=st.booleans(),
    queue_fill=fills,
    busy_fraction=busies,
)

@st.composite
def views(draw):
    names = draw(st.lists(st.sampled_from(GROUPS), min_size=2, max_size=3, unique=True))
    return WorkloadView(
        groups={name: draw(group_signals) for name in names},
        chains={"c": draw(chain_signals)},
    )


@settings(max_examples=300, deadline=None)
@given(
    streak_ticks=st.integers(1, 3),
    sequence=st.lists(views(), min_size=1, max_size=40),
)
def test_decisions_equal_the_two_class_policy(streak_ticks, sequence):
    replan = ReplanConfig(streak_ticks=streak_ticks)
    policy = CostModelPolicy(replan)
    oracle = policy_oracle.CostModelPolicy(replan)
    for tick, view in enumerate(sequence):
        assert policy.decide(view) == oracle.decide(view), f"tick {tick}"


def test_qos_boost_clears_the_idle_streak():
    """A boost is an overloaded tick: the idle ticks before it do not count
    towards the next scale-down."""
    idle = GroupSignals(parallelism=2)
    boost = GroupSignals(qos_violation_delta=1, parallelism=2)
    script = [idle] * 4 + [boost] + [GroupSignals(parallelism=4)] * 5
    policy = CostModelPolicy()
    oracle = policy_oracle.CostModelPolicy()
    decided = []
    for signals in script:
        view = WorkloadView(groups={"g": signals, "h": GroupSignals()})
        actions = policy.decide(view)
        assert actions == oracle.decide(view)
        decided.append(actions)
    assert decided[4] == [Rescale(group="g", target=4)]
    assert all(actions == [] for actions in decided[:4] + decided[5:])
