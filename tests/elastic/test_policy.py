"""Scale policy and ElasticConfig: hysteresis streaks, bounds, validation."""

import pytest

from repro.elastic import ElasticConfig
from repro.elastic.policy import GroupSignals, HysteresisPolicy, ScalePolicy


def overloaded(parallelism=1):
    return GroupSignals(queue_fill=0.9, busy_fraction=0.95, parallelism=parallelism)


def idle(parallelism=2):
    return GroupSignals(queue_fill=0.0, busy_fraction=0.0, parallelism=parallelism)


def steady(parallelism=2):
    return GroupSignals(queue_fill=0.3, busy_fraction=0.6, parallelism=parallelism)


class TestHysteresisPolicy:
    def test_up_needs_consecutive_overloaded_ticks(self):
        policy = HysteresisPolicy(up_ticks=2, qos_boost=False)
        assert policy.decide("g", overloaded(), 1) == 1
        assert policy.decide("g", overloaded(), 1) == 2  # doubling

    def test_steady_tick_resets_up_streak(self):
        policy = HysteresisPolicy(up_ticks=2, qos_boost=False)
        assert policy.decide("g", overloaded(), 1) == 1
        assert policy.decide("g", steady(1), 1) == 1
        assert policy.decide("g", overloaded(), 1) == 1  # streak restarted

    def test_qos_violation_scales_up_immediately(self):
        policy = HysteresisPolicy(up_ticks=4, qos_boost=True)
        signals = GroupSignals(qos_violation_delta=1, parallelism=2)
        assert policy.decide("g", signals, 2) == 4

    def test_down_needs_long_idle_streak(self):
        policy = HysteresisPolicy(down_ticks=3)
        assert policy.decide("g", idle(), 2) == 2
        assert policy.decide("g", idle(), 2) == 2
        assert policy.decide("g", idle(), 2) == 1  # one replica at a time

    def test_no_down_below_one(self):
        policy = HysteresisPolicy(down_ticks=1)
        assert policy.decide("g", idle(1), 1) == 1

    def test_streaks_are_per_group(self):
        policy = HysteresisPolicy(up_ticks=2, qos_boost=False)
        assert policy.decide("a", overloaded(), 1) == 1
        assert policy.decide("b", overloaded(), 1) == 1
        assert policy.decide("a", overloaded(), 1) == 2

    def test_satisfies_scale_policy_protocol(self):
        assert isinstance(HysteresisPolicy(), ScalePolicy)


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
