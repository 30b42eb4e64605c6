"""DeployConfig: validation catalogue, dict/TOML round-trip, the one-argument
deploy/start surface, and the snake_case/camelCase verb surface."""

import io
import tomllib

import pytest

from repro.core import (
    DeployConfig,
    DeployConfigError,
    RecoveryConfig,
    Strata,
)
from repro.core.errors import DeploymentError
from repro.elastic import ElasticConfig
from repro.kvstore.memory import MemoryStore
from repro.recovery import CheckpointCoordinator
from repro.spe import CollectingSink, ListSource, PlanConfig
from repro.spe.tuples import StreamTuple


def records(n=6):
    return [
        StreamTuple(tau=float(i), job="j", layer=i, payload={"v": i})
        for i in range(n)
    ]


def simple_strata():
    strata = Strata(engine_mode="threaded")
    sink = CollectingSink("out")
    strata.add_source(ListSource("src", records()), "raw")
    strata.deliver("raw", sink)
    return strata, sink


#: settings fixed at their one value in use, each with a TOML snippet that
#: sets it: a config file naming one must fail to parse, not at deploy
RETIRED_KEYS = [
    ("plan.linger_s", b"[plan]\nlinger_s = 0.01\n"),
    ("plan.edge_batch_size", b"[plan]\nedge_batch_size = 32\n"),
    ("obs.max_traces", b"[obs]\nmax_traces = 0\n"),
    ("obs.time_buckets", b"[obs]\ntime_buckets = []\n"),
    ("obs.timing_histograms", b"[obs]\ntiming_histograms = true\n"),
    ("elastic.initial_parallelism", b"[plan]\n[elastic]\ninitial_parallelism = 2\n"),
    ("elastic.adaptive_batching", b"[plan]\n[elastic]\nadaptive_batching = false\n"),
    ("elastic.batch_min", b"[plan]\n[elastic]\nbatch_min = 2\n"),
    ("elastic.batch_max", b"[plan]\n[elastic]\nbatch_max = 64\n"),
    ("elastic.replan.max_actions_per_tick",
     b"[plan]\n[elastic.replan]\nmax_actions_per_tick = 2\n"),
    ("elastic.replan.migrate_busy_ratio",
     b"[plan]\n[elastic.replan]\nmigrate_busy_ratio = 3.0\n"),
    ("elastic.replan.migrate", b"[plan]\n[elastic.replan]\nmigrate = true\n"),
]


# -- cross-field validation ---------------------------------------------------


class TestValidation:
    def test_plan_and_elastic_shorthands_resolve(self):
        config = DeployConfig(plan=True, elastic=True)
        assert isinstance(config.plan, PlanConfig)
        assert isinstance(config.elastic, ElasticConfig)

    def test_dist_false_normalizes_to_none(self):
        assert DeployConfig(dist=False).dist is None

    def test_elastic_requires_a_plan(self):
        with pytest.raises(DeployConfigError, match="set plan=True"):
            DeployConfig(elastic=True)

    def test_dist_excludes_recovery(self):
        with pytest.raises(DeployConfigError, match="its own crash recovery"):
            DeployConfig(dist=2, recovery=RecoveryConfig(interval_s=0.5))

    def test_dist_with_inactive_recovery_is_fine(self):
        config = DeployConfig(dist=2, recovery=RecoveryConfig())
        assert config.dist == 2

    def test_recovery_must_be_a_recovery_config(self):
        with pytest.raises(DeployConfigError, match="RecoveryConfig"):
            DeployConfig(recovery={"interval_s": 1.0})

    def test_bad_plan_shorthand_raises_deploy_config_error(self):
        with pytest.raises(DeployConfigError):
            DeployConfig(plan="yes please")

    def test_bad_elastic_shorthand_raises_deploy_config_error(self):
        with pytest.raises(DeployConfigError):
            DeployConfig(plan=True, elastic=3)

    def test_recovery_rejects_checkpointer_plus_knobs(self):
        coordinator = CheckpointCoordinator(MemoryStore())
        with pytest.raises(DeployConfigError, match="not both"):
            RecoveryConfig(checkpointer=coordinator, interval_s=0.5)

    def test_recovery_validates_knob_ranges(self):
        with pytest.raises(DeployConfigError):
            RecoveryConfig(interval_s=0.0)
        with pytest.raises(DeployConfigError):
            RecoveryConfig(retain=0)

    def test_every_violation_is_catchable_as_deployment_error(self):
        with pytest.raises(DeploymentError):
            DeployConfig(elastic=True)

    def test_start_refuses_distributed(self):
        strata, _ = simple_strata()
        with pytest.raises(DeployConfigError, match="deploy"):
            strata.start(DeployConfig(dist=2))

    def test_elastic_requires_threaded_engine(self):
        strata = Strata(engine_mode="sync")
        sink = CollectingSink("out")
        strata.add_source(ListSource("src", records()), "raw")
        strata.deliver("raw", sink)
        with pytest.raises(DeployConfigError, match="threaded"):
            strata.deploy(DeployConfig(plan=True, elastic=True))

    def test_describe_lists_configured_subsystems(self):
        config = DeployConfig(plan=True, elastic=ElasticConfig(max_parallelism=8))
        text = config.describe()
        assert "plan(" in text and "elastic(" in text
        assert DeployConfig().describe() == "defaults"


# -- dict / TOML round-trip ---------------------------------------------------


class TestRoundTrip:
    def test_from_dict_builds_sub_configs(self):
        config = DeployConfig.from_dict({
            "plan": {"parallelism": 2},
            "elastic": {"min_parallelism": 1, "max_parallelism": 8},
            "recovery": {"interval_s": 0.5, "retain": 3},
        })
        assert config.plan.parallelism == 2
        assert config.elastic.max_parallelism == 8
        assert config.recovery.retain == 3

    def test_round_trip_is_identity(self):
        config = DeployConfig.from_dict({
            "plan": {"parallelism": 2},
            "elastic": {"max_parallelism": 8, "cooldown_s": 1.0},
        })
        assert DeployConfig.from_dict(config.to_dict()) == config

    def test_toml_text_round_trips(self):
        text = b"""
        [plan]
        parallelism = 2

        [elastic]
        max_parallelism = 8
        cooldown_s = 0.5
        """
        config = DeployConfig.from_dict(tomllib.load(io.BytesIO(text)))
        assert config.plan.parallelism == 2
        assert config.elastic.cooldown_s == 0.5
        assert DeployConfig.from_dict(config.to_dict()) == config

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(DeployConfigError, match="unknown deploy config key"):
            DeployConfig.from_dict({"plann": True})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(DeployConfigError, match=r"\[elastic\]"):
            DeployConfig.from_dict({
                "plan": True, "elastic": {"max_paralelism": 8},
            })
        # the retired plan switches are unknown keys like any other
        with pytest.raises(DeployConfigError, match=r"plan\.fusion"):
            DeployConfig.from_dict({"plan": {"fusion": False}})
        toml = b"[plan]\nvectorize = false\n"
        with pytest.raises(DeployConfigError, match=r"plan\.vectorize"):
            DeployConfig.from_dict(tomllib.load(io.BytesIO(toml)))
        # ... and so are the five retired [dist] fields
        toml = b'[dist]\nworkers = 2\nstart_method = "fork"\n'
        with pytest.raises(DeployConfigError, match=r"dist\.start_method"):
            DeployConfig.from_dict(tomllib.load(io.BytesIO(toml)))

    @pytest.mark.parametrize(
        "path, toml", RETIRED_KEYS, ids=[path for path, _ in RETIRED_KEYS]
    )
    def test_retired_keys_rejected_at_parse_time(self, path, toml):
        with pytest.raises(DeployConfigError, match=path.replace(".", r"\.")):
            DeployConfig.from_dict(tomllib.load(io.BytesIO(toml)))

    def test_live_fields_rejected_in_tables(self):
        with pytest.raises(DeployConfigError, match="non-serializable"):
            DeployConfig.from_dict({"recovery": {"checkpointer": "x"}})

    def test_live_objects_refuse_serialization(self):
        coordinator = CheckpointCoordinator(MemoryStore())
        config = DeployConfig(recovery=RecoveryConfig(checkpointer=coordinator))
        with pytest.raises(DeployConfigError, match="live object"):
            config.to_dict()

    def test_boolean_shorthand_survives_round_trip(self):
        config = DeployConfig.from_dict({"plan": True, "elastic": True})
        data = config.to_dict()
        assert DeployConfig.from_dict(data) == config


# -- deploy()/start() take a DeployConfig or nothing --------------------------


class TestDeployArgument:
    def test_no_argument_runs_the_graph_as_declared(self):
        strata, sink = simple_strata()
        strata.deploy()
        assert len(sink.results) == len(records())

    @pytest.mark.parametrize(
        "keyword", ["optimize", "checkpointer", "recover_from", "distributed"]
    )
    def test_retired_keywords_are_a_type_error(self, keyword):
        strata, _ = simple_strata()
        with pytest.raises(TypeError, match="unexpected keyword"):
            strata.deploy(**{keyword: True})
        with pytest.raises(TypeError, match="unexpected keyword"):
            strata.start(**{keyword: True})

    @pytest.mark.parametrize("shorthand", [True, PlanConfig(parallelism=1), 2])
    def test_anything_but_a_deploy_config_is_rejected(self, shorthand):
        strata, sink = simple_strata()
        with pytest.raises(DeployConfigError, match="must be a DeployConfig"):
            strata.deploy(shorthand)
        with pytest.raises(DeployConfigError, match="must be a DeployConfig"):
            strata.start(shorthand)
        assert not sink.results


# -- verb surface: snake_case canonical, camelCase alias ----------------------


class TestVerbAliases:
    def test_both_spellings_build_the_same_pipeline(self):
        snake, snake_sink = simple_strata()
        snake.deploy()
        camel = Strata(engine_mode="threaded")
        camel_sink = CollectingSink("out")
        camel.addSource(ListSource("src", records()), "raw")
        camel.deliver("raw", camel_sink)
        camel.deploy()
        assert [t.payload for t in camel_sink.results] == [
            t.payload for t in snake_sink.results
        ]

    def test_strata_aliases_wrap_canonical_functions(self):
        # The aliases are the canonical functions themselves, not wrappers.
        for alias, canonical in (
            ("addSource", "add_source"),
            ("detectEvent", "detect_event"),
            ("correlateEvents", "correlate_events"),
        ):
            assert getattr(Strata, alias) is getattr(Strata, canonical)
            assert not hasattr(getattr(Strata, alias), "__wrapped__")


# -- the [fleet] section ------------------------------------------------------


class TestFleetSection:
    def test_from_dict_builds_fleet_config(self):
        from repro.fleet import FleetConfig

        config = DeployConfig.from_dict({
            "fleet": {"worker_budget": 12, "max_jobs_per_tenant": 3},
        })
        assert isinstance(config.fleet, FleetConfig)
        assert config.fleet.worker_budget == 12
        assert config.fleet.max_jobs_per_tenant == 3

    def test_fleet_boolean_shorthand_and_resolve(self):
        from repro.fleet import FleetConfig

        assert DeployConfig.from_dict({"fleet": True}).fleet == FleetConfig()
        assert DeployConfig.from_dict({"fleet": False}).fleet is None
        assert DeployConfig().fleet is None
        with pytest.raises(DeployConfigError):
            DeployConfig(fleet="yes")

    def test_fleet_round_trip_is_identity(self):
        data = {
            "fleet": {
                "worker_budget": 6, "max_jobs_per_tenant": 2,
                "max_parallelism_per_tenant": 4, "min_share": 1,
                "tick_s": 0.5, "host": "0.0.0.0", "port": 0,
                "default_tenant": "lab",
            },
            "plan": {"parallelism": 2},
        }
        config = DeployConfig.from_dict(data)
        assert config.to_dict()["fleet"] == data["fleet"]
        assert DeployConfig.from_dict(config.to_dict()) == config

    def test_toml_text_with_fleet_table(self):
        text = b"""
        [fleet]
        worker_budget = 16
        default_tenant = "shopfloor"

        [plan]
        parallelism = 2
        """
        config = DeployConfig.from_dict(tomllib.load(io.BytesIO(text)))
        assert config.fleet.worker_budget == 16
        assert config.fleet.default_tenant == "shopfloor"
        assert config.describe().startswith("plan(")
        assert "fleet(" in config.describe()

    def test_unknown_fleet_key_reports_dotted_path(self):
        with pytest.raises(DeployConfigError, match=r"fleet\.worker_budgt"):
            DeployConfig.from_dict({"fleet": {"worker_budgt": 8}})
        with pytest.raises(DeployConfigError, match=r"\[fleet\]"):
            DeployConfig.from_dict({"fleet": {"nope": 1}})

    def test_unknown_elastic_key_reports_dotted_path(self):
        with pytest.raises(DeployConfigError, match=r"elastic\.max_paralelism"):
            DeployConfig.from_dict({
                "plan": True, "elastic": {"max_paralelism": 8},
            })

    def test_invalid_fleet_values_raise_deploy_config_error(self):
        with pytest.raises(DeployConfigError, match="worker_budget"):
            DeployConfig.from_dict({"fleet": {"worker_budget": 0}})
