"""FleetService: submit/admit/run/cancel with real pipelines.

Workloads are kept tiny (a few layers at coarse resolution) so each job
completes in about a second; determinism of the am simulator makes the
in-fleet vs standalone divergence check exact.
"""

import gc
import threading
import weakref

import pytest

from repro.core import DeployConfig
from repro.core.errors import DeployConfigError
from repro.fleet import (
    CANCELLED,
    COMPLETED,
    AdmissionError,
    FleetConfig,
    FleetError,
    FleetService,
    JobRegistry,
    run_standalone,
)
from repro.fleet import runner as runner_module
from repro.fleet.runner import build_pipeline, resolve_workload, strata_for
from repro.kvstore import MemoryStore
from repro.obs import ObsContext, exporters
from tests.conftest import assert_families_grouped

SMALL = {"layers": 3, "image_px": 96, "cell_edge": 8, "window": 3}


@pytest.fixture()
def service():
    svc = FleetService(FleetConfig(worker_budget=6, tick_s=0.05))
    yield svc
    svc.drain(timeout=30.0)


class TestWorkloadSpec:
    def test_defaults_fill_in(self):
        spec = resolve_workload({"layers": 2})
        assert spec["kind"] == "thermal"
        assert spec["layers"] == 2

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown workload key"):
            resolve_workload({"layer": 2})

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            resolve_workload({"kind": "milling"})
        with pytest.raises(ValueError, match="layers"):
            resolve_workload({"layers": 0})

    @pytest.mark.parametrize(
        "bad",
        [
            {"layers": 2.5},
            {"layers": True},
            {"seed": None},
            {"image_px": "160px"},
            {"defect_rate": float("nan")},
            {"streak_rate": "inf"},
            {"streak_rate": -0.5},
        ],
    )
    def test_numbers_must_be_numbers_in_range(self, bad):
        with pytest.raises(ValueError, match=f"workload.{next(iter(bad))}"):
            resolve_workload(bad)

    def test_numeric_fields_are_coerced(self):
        sent = resolve_workload(
            {"seed": "7", "layers": 3.0, "defect_rate": "0.5", "streak_rate": 1}
        )
        typed = resolve_workload(
            {"seed": 7, "layers": 3, "defect_rate": 0.5, "streak_rate": 1.0}
        )
        assert sent == typed
        assert [type(sent[k]) for k in ("seed", "layers", "defect_rate", "streak_rate")] == [
            int, int, float, float,
        ]


class TestSubmission:
    def test_job_completes_with_zero_divergence(self, service):
        record = service.submit({"workload": SMALL})
        assert record.tenant == "default"
        final = service.wait(record.job_id, timeout=90)
        assert final.state == COMPLETED
        assert final.result["result_ids"] == run_standalone(SMALL)
        assert final.result["images_per_second"] > 0
        assert [t["state"] for t in final.transitions] == [
            "PENDING", "ADMITTED", "RUNNING", "COMPLETED",
        ]

    def test_streak_workload_completes(self, service):
        record = service.submit(
            {"workload": {**SMALL, "kind": "streaks", "layers": 4}}
        )
        final = service.wait(record.job_id, timeout=90)
        assert final.state == COMPLETED
        assert final.result["result_ids"] == run_standalone(
            {**SMALL, "kind": "streaks", "layers": 4}
        )

    def test_a_job_parses_its_deploy_config_once(self, service, monkeypatch):
        calls = []
        parse = DeployConfig.from_dict.__func__

        def counting(cls, data):
            calls.append(data)
            return parse(cls, data)

        monkeypatch.setattr(DeployConfig, "from_dict", classmethod(counting))
        record = service.submit({"workload": SMALL, "deploy": {"plan": True}})
        assert service.wait(record.job_id, timeout=90).state == COMPLETED
        assert calls == [{"plan": True}]

    def test_invalid_deploy_config_rejected_before_admission(self, service):
        with pytest.raises(DeployConfigError, match="unknown deploy config key"):
            service.submit({"workload": SMALL, "deploy": {"plam": True}})
        assert len(service.registry) == 0

    def test_fleet_section_rejected_in_submission(self, service):
        with pytest.raises(ValueError, match="fleet"):
            service.submit({"deploy": {"fleet": {"worker_budget": 2}}})

    def test_unknown_submission_key_rejected(self, service):
        with pytest.raises(ValueError, match="unknown submission key"):
            service.submit({"wrkload": SMALL})

    def test_quota_rejection_raises_and_counts(self, service):
        with pytest.raises(AdmissionError) as err:
            service.submit(
                {"workload": SMALL, "deploy": {"plan": {"parallelism": 7}}}
            )
        assert err.value.code == "job-exceeds-budget"
        assert (
            service.metrics.snapshot().value(
                "fleet_jobs_rejected_total", code="job-exceeds-budget"
            )
            == 1.0
        )


class TestCancel:
    def test_cancel_running_job(self, service):
        record = service.submit(
            {"workload": {**SMALL, "layers": 40, "image_px": 200}}
        )
        cancelled = service.cancel(record.job_id, timeout=30)
        assert cancelled.state == CANCELLED
        # quota released: the tenant can submit again immediately
        again = service.submit({"workload": SMALL})
        assert service.wait(again.job_id, timeout=90).state == COMPLETED

    def test_cancel_finished_job_raises(self, service):
        record = service.submit({"workload": SMALL})
        service.wait(record.job_id, timeout=90)
        with pytest.raises(FleetError, match="already finished"):
            service.cancel(record.job_id)


def job_lines(text: str, job_id: str) -> list[str]:
    """The exposition's sample lines labelled with ``job_id``."""
    return [line for line in text.splitlines() if f'job="{job_id}"' in line]


def submit_held(service, monkeypatch, tenant: str = "acme"):
    """Submit a job that stays live — RUNNING, its runner listed, its
    ObsContext attached — with its pipeline done, until ``release`` is set:
    its runner waits just before finishing. Returns ``(record, release)``."""
    reached, release = threading.Event(), threading.Event()
    real_finish = runner_module.JobRunner._finish

    def finish(runner, *args):
        reached.set()
        release.wait(timeout=60)
        real_finish(runner, *args)

    monkeypatch.setattr(runner_module.JobRunner, "_finish", finish)
    record = service.submit({"tenant": tenant, "workload": SMALL})
    assert reached.wait(timeout=60), "the held job never reached its finish"
    return record, release


class TestObservability:
    def test_fleet_snapshot_labels_every_job_series(self, service):
        records = [
            service.submit({"tenant": t, "workload": SMALL})
            for t in ("acme", "zenith")
        ]
        for record in records:
            service.wait(record.job_id, timeout=90)
        text = service.prometheus()
        for record in records:
            lines = job_lines(text, record.job_id)
            assert any(line.startswith("strata_") for line in lines)
            assert all(f'tenant="{record.tenant}"' in line for line in lines)
        snap = service.snapshot()
        assert snap.value("fleet_jobs_submitted_total") == 2.0
        assert snap.value("fleet_worker_budget") == 6.0

    def test_a_forecast_job_counts_its_predictive_alerts(self, service):
        """A forecast job alerts at the threshold its build suggests, through
        its own watchdog: its series count what an observed standalone
        build of the same spec raises."""
        spec = {**SMALL, "kind": "forecast"}
        record = service.submit({"tenant": "acme", "workload": spec})
        assert service.wait(record.job_id, timeout=90).state == COMPLETED
        [line] = [
            line for line in job_lines(service.prometheus(), record.job_id)
            if line.startswith("strata_qos_predictive_alerts_total{")
        ]
        strata = strata_for(DeployConfig(), obs=ObsContext())
        build_pipeline(strata, resolve_workload(spec), MemoryStore())
        strata.deploy()
        expected = strata.obs.watchdog.predictive_events
        assert float(line.rsplit(" ", 1)[1]) == expected > 0

    def test_a_scrape_groups_every_metric_family(self, service, monkeypatch):
        """Two finished jobs and a running one export the same families; the
        exposition must still hold each family in one group under one
        ``# TYPE`` line, or a Prometheus server rejects the scrape."""
        for tenant in ("acme", "zenith"):
            record = service.submit({"tenant": tenant, "workload": SMALL})
            assert service.wait(record.job_id, timeout=90).state == COMPLETED
        running, release = submit_held(service, monkeypatch, tenant="zenith")
        try:
            text = service.prometheus()
        finally:
            release.set()
        assert any(line.startswith("strata_") for line in job_lines(text, running.job_id))
        assert_families_grouped(text)

    def test_a_scrape_renders_no_finished_job_samples(self, service, monkeypatch):
        """A finished job's series are rendered once, when it ends: a scrape
        renders the fleet's own and the running jobs' samples and copies
        the finished jobs' lines. ``snapshot()`` holds the live series only."""
        finished = service.submit({"tenant": "acme", "workload": SMALL})
        assert service.wait(finished.job_id, timeout=90).state == COMPLETED
        running, release = submit_held(service, monkeypatch)
        rendered = []
        real_line = exporters._sample_line

        def sample_line(sample):
            rendered.append(sample.label("job"))
            return real_line(sample)

        monkeypatch.setattr(exporters, "_sample_line", sample_line)
        try:
            text = service.prometheus()
            live = {s.label("job") for s in service.snapshot()}
        finally:
            release.set()
        assert finished.job_id not in rendered
        assert running.job_id in rendered and None in rendered  # and the fleet's own
        assert any(line.startswith("strata_") for line in job_lines(text, finished.job_id))
        assert running.job_id in live and finished.job_id not in live

    def test_a_finished_job_keeps_its_snapshot_not_its_pipeline(
        self, service, monkeypatch
    ):
        """A finished job keeps its record and its labelled final series;
        its Strata (KV store, build records and images, sink results) and
        its ObsContext (whose collectors close over the engine) are garbage,
        however many finished jobs the service remembers."""
        pinned = []
        real_build = runner_module.build_pipeline

        def build_pipeline(strata, *args):
            pinned.append((weakref.ref(strata), weakref.ref(strata.obs)))
            return real_build(strata, *args)

        monkeypatch.setattr(runner_module, "build_pipeline", build_pipeline)
        record = service.submit({"tenant": "acme", "workload": SMALL})
        assert service.wait(record.job_id, timeout=90).state == COMPLETED
        for thread in threading.enumerate():
            if thread.name == f"fleet-job-{record.job_id}":
                thread.join(timeout=10)
        gc.collect()
        [(strata, obs)] = pinned
        assert strata() is None, "a finished job still pins its Strata"
        assert obs() is None, "a finished job still pins its ObsContext"
        lines = job_lines(service.prometheus(), record.job_id)
        assert any(line.startswith("strata_") for line in lines)
        assert all('tenant="acme"' in line for line in lines)

    def test_health_reports_counts_and_version(self, service):
        health = service.health()
        assert health["status"] == "ok"
        assert health["version"]
        assert set(health["jobs"]) == {
            "PENDING", "ADMITTED", "RUNNING", "COMPLETED", "FAILED", "CANCELLED",
        }


class TestPersistence:
    def test_restart_rehydrates_and_fails_orphans(self):
        store = MemoryStore()
        svc = FleetService(FleetConfig(worker_budget=6, tick_s=0.05), store=store)
        record = svc.submit({"workload": SMALL})
        svc.wait(record.job_id, timeout=90)
        running = svc.submit(
            {"workload": {**SMALL, "layers": 40, "image_px": 200}}
        )
        # simulate a crash: the store survives, the service does not
        reborn = JobRegistry(store)
        reborn.load()
        assert reborn.get(record.job_id).state == COMPLETED
        assert reborn.get(running.job_id).state == "FAILED"
        svc.drain(timeout=30.0)
