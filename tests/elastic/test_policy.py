"""The rescale rule and ElasticConfig: hysteresis streaks, bounds,
validation."""

import pytest

from repro.elastic import (
    CostModelPolicy,
    ElasticConfig,
    GroupSignals,
    Rescale,
    WorkloadView,
)


def overloaded(parallelism=1):
    return GroupSignals(queue_fill=0.9, busy_fraction=0.95, parallelism=parallelism)


def idle(parallelism=2):
    return GroupSignals(queue_fill=0.0, busy_fraction=0.0, parallelism=parallelism)


def steady(parallelism=2):
    return GroupSignals(queue_fill=0.3, busy_fraction=0.6, parallelism=parallelism)


def target(policy, group, signals):
    """``group``'s replica count after one decision round."""
    actions = policy.decide(WorkloadView(groups={group: signals}))
    rescales = [a.target for a in actions if isinstance(a, Rescale)]
    return rescales[0] if rescales else signals.parallelism


class TestHysteresisPolicy:
    """``CostModelPolicy``'s rescale rule at its fixed thresholds: double
    after 2 overloaded ticks or on a QoS violation, shed one replica after
    6 idle ticks."""

    def test_up_needs_consecutive_overloaded_ticks(self):
        policy = CostModelPolicy()
        assert target(policy, "g", overloaded()) == 1
        assert target(policy, "g", overloaded()) == 2  # doubling

    def test_steady_tick_resets_up_streak(self):
        policy = CostModelPolicy()
        assert target(policy, "g", overloaded()) == 1
        assert target(policy, "g", steady(1)) == 1
        assert target(policy, "g", overloaded()) == 1  # streak restarted

    def test_qos_violation_scales_up_immediately(self):
        policy = CostModelPolicy()
        signals = GroupSignals(qos_violation_delta=1, parallelism=2)
        assert target(policy, "g", signals) == 4

    def test_down_needs_long_idle_streak(self):
        policy = CostModelPolicy()
        for _ in range(5):
            assert target(policy, "g", idle()) == 2
        assert target(policy, "g", idle()) == 1  # one replica at a time

    def test_no_down_below_one(self):
        policy = CostModelPolicy()
        for _ in range(12):
            assert target(policy, "g", idle(1)) == 1

    def test_streaks_are_per_group(self):
        policy = CostModelPolicy()
        assert target(policy, "a", overloaded()) == 1
        assert target(policy, "b", overloaded()) == 1
        assert target(policy, "a", overloaded()) == 2


class TestElasticConfig:
    def test_defaults_are_valid(self):
        config = ElasticConfig()
        assert 1 == config.min_parallelism <= config.max_parallelism

    @pytest.mark.parametrize("kwargs", [
        {"min_parallelism": 0},
        {"min_parallelism": 4, "max_parallelism": 2},
        {"replan": 3},
        {"tick_s": 0.0},
        {"cooldown_s": -1.0},
    ])
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ElasticConfig(**kwargs)

    def test_resolve_normalizes_shorthands(self):
        assert ElasticConfig.resolve(None) is None
        assert ElasticConfig.resolve(False) is None
        assert ElasticConfig.resolve(True) == ElasticConfig()
        config = ElasticConfig(max_parallelism=8)
        assert ElasticConfig.resolve(config) is config
        with pytest.raises(TypeError):
            ElasticConfig.resolve(3)

    def test_describe_mentions_bounds(self):
        text = ElasticConfig(min_parallelism=2, max_parallelism=6).describe()
        assert "2..6" in text
