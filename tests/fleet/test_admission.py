"""Admission control: quotas, rejection codes, parallelism accounting."""

import pytest

from repro.core import DeployConfig
from repro.fleet import (
    AdmissionController,
    AdmissionError,
    FleetConfig,
    JobRecord,
    JobRegistry,
    new_job_id,
    requested_parallelism,
)
from repro.fleet.registry import CANCELLED, PENDING  # noqa: F401
from repro.kvstore import MemoryStore


def charged(deploy):
    return requested_parallelism(DeployConfig.from_dict(deploy))


class TestRequestedParallelism:
    def test_default_deployment_is_one(self):
        assert charged({}) == 1
        assert charged({"plan": True}) == 1

    def test_static_plan_charged_declared_parallelism(self):
        assert charged({"plan": {"parallelism": 3}}) == 3

    def test_elastic_charged_upper_bound(self):
        elastic = {"plan": {"parallelism": 2}, "elastic": {"max_parallelism": 6}}
        assert charged(elastic) == 6
        assert charged({"plan": True, "elastic": True}) == 4  # config default
        assert charged({"plan": True, "elastic": {}}) == 4


def make_controller(**cfg):
    config = FleetConfig(**cfg)
    registry = JobRegistry(MemoryStore())
    return config, registry, AdmissionController(config, registry)


def admit_job(registry, tenant, parallelism=1):
    record = JobRecord(
        job_id=new_job_id(), tenant=tenant, parallelism=parallelism
    )
    registry.register(record)
    return record


class TestQuotas:
    def test_admits_within_quota(self):
        _, _, controller = make_controller()
        decision = controller.decide("t1", 2)
        assert decision.admitted
        decision.raise_if_rejected()  # no-op when admitted

    def test_job_bigger_than_whole_budget_rejected(self):
        _, _, controller = make_controller(worker_budget=4)
        decision = controller.decide("t1", 5)
        assert not decision.admitted
        assert decision.code == "job-exceeds-budget"
        assert decision.detail == {"requested": 5, "worker_budget": 4}

    def test_concurrent_jobs_quota(self):
        _, registry, controller = make_controller(max_jobs_per_tenant=2)
        admit_job(registry, "t1")
        admit_job(registry, "t1")
        decision = controller.decide("t1", 1)
        assert decision.code == "tenant-jobs-quota"
        assert decision.detail["active_jobs"] == 2
        # a different tenant is unaffected
        assert controller.decide("t2", 1).admitted

    def test_parallelism_quota_sums_active_jobs(self):
        _, registry, controller = make_controller(
            max_jobs_per_tenant=5, max_parallelism_per_tenant=8
        )
        admit_job(registry, "t1", parallelism=4)
        admit_job(registry, "t1", parallelism=3)
        decision = controller.decide("t1", 2)
        assert decision.code == "tenant-parallelism-quota"
        assert decision.detail["committed"] == 7
        assert decision.detail["requested"] == 2
        assert controller.decide("t1", 1).admitted

    def test_terminal_jobs_release_quota(self):
        _, registry, controller = make_controller(max_jobs_per_tenant=1)
        record = admit_job(registry, "t1")
        assert controller.decide("t1", 1).code == "tenant-jobs-quota"
        registry.transition(record.job_id, CANCELLED)
        assert controller.decide("t1", 1).admitted

    def test_raise_if_rejected_carries_structure(self):
        _, _, controller = make_controller(worker_budget=2)
        with pytest.raises(AdmissionError) as err:
            controller.decide("t1", 3).raise_if_rejected()
        body = err.value.to_dict()
        assert body["code"] == "job-exceeds-budget"
        assert body["detail"]["worker_budget"] == 2
        assert "message" in body


class TestFleetConfigValidation:
    def test_defaults_valid(self):
        FleetConfig()

    @pytest.mark.parametrize("bad", [
        {"max_jobs_per_tenant": 0},
        {"max_parallelism_per_tenant": 0},
        {"worker_budget": 0},
        {"min_share": 0},
        {"min_share": 9, "worker_budget": 8},
        {"tick_s": 0},
        {"port": 70000},
        {"default_tenant": ""},
    ])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValueError):
            FleetConfig(**bad)

    def test_resolve(self):
        assert FleetConfig.resolve(None) is None
        assert FleetConfig.resolve(False) is None
        assert FleetConfig.resolve(True) == FleetConfig()
        cfg = FleetConfig(worker_budget=3)
        assert FleetConfig.resolve(cfg) is cfg
        with pytest.raises(TypeError):
            FleetConfig.resolve("yes")
