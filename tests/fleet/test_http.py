"""The HTTP control-plane API, driven end to end over a real socket.

``TestFleetSmoke`` is the acceptance scenario from the fleet design: two
tenants run three concurrent jobs to completion with zero divergence
against standalone runs, a fourth submission over quota is rejected with
a structured 429, a long job is cancelled through DELETE within the
latency budget, and one ``/metrics`` scrape exposes every job's
``strata_*`` series behind ``job``/``tenant`` labels.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.fleet import FleetConfig, FleetHTTPServer, FleetService, run_standalone
from repro.fleet import runner as runner_module
from tests.conftest import keepalive_median_ms

SMALL = {"layers": 3, "image_px": 96, "cell_edge": 8, "window": 3}
LONG = {"layers": 60, "image_px": 200, "cell_edge": 8, "window": 3}


@pytest.fixture(scope="module")
def server():
    service = FleetService(
        FleetConfig(
            worker_budget=8,
            max_jobs_per_tenant=2,
            max_parallelism_per_tenant=8,
            tick_s=0.05,
            port=0,
        )
    )
    srv = FleetHTTPServer(service, port=0)
    srv.start()
    yield srv
    srv.stop(drain_timeout=30.0)


def request(server, method, path, body=None, ctype="application/json"):
    data = body if isinstance(body, (bytes, type(None))) else json.dumps(body).encode()
    req = urllib.request.Request(
        server.url + path,
        method=method,
        data=data,
        headers={"Content-Type": ctype} if data else {},
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read() or b"{}")
    except urllib.error.HTTPError as err:
        payload = err.read()
        return err.code, json.loads(payload) if payload else {}


def get_text(server, path):
    with urllib.request.urlopen(server.url + path, timeout=30) as resp:
        return resp.status, resp.read().decode()


def wait_terminal(server, job_id, timeout=90.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, body = request(server, "GET", f"/jobs/{job_id}")
        assert status == 200
        if body["state"] in ("COMPLETED", "FAILED", "CANCELLED"):
            return body
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} still {body['state']} after {timeout}s")


def hold_last_layer_until_cancel(monkeypatch):
    """Make every ``thermal`` job built from now on hold its last layer back
    until a cancel reaches its runner: however fast it runs, the job is
    still RUNNING when a DELETE lands, and it ends once the cancel stops it."""
    cancelled = threading.Event()
    real_cancel = runner_module.JobRunner.cancel
    real_build = runner_module.build_use_case

    def cancel(runner):
        cancelled.set()
        real_cancel(runner)

    def held(records):
        *head, last = records
        yield from head
        cancelled.wait(timeout=60)
        yield last

    def build_use_case(ot_records, pp_records, config, **kwargs):
        return real_build(held(ot_records), held(pp_records), config, **kwargs)

    monkeypatch.setattr(runner_module.JobRunner, "cancel", cancel)
    monkeypatch.setattr(runner_module, "build_use_case", build_use_case)


class TestFleetSmoke:
    def test_three_tenant_jobs_quota_cancel_and_metrics(self, server, monkeypatch):
        # -- three concurrent jobs from two tenants -------------------------
        elastic = {"plan": True, "elastic": {"max_parallelism": 2}}
        # acme's two jobs must both still be active when its 4th request
        # lands: a warm server can finish a 3- or 4-layer job in between
        specs = [
            ("acme", {**SMALL, "layers": 24, "seed": 11}, elastic),
            # the streak pipeline has no keyed replica group — runs static
            ("acme", {**SMALL, "kind": "streaks", "layers": 24, "seed": 12},
             {"plan": True}),
            ("zenith", {**SMALL, "seed": 13}, elastic),
        ]
        jobs = []
        for tenant, workload, deploy in specs:
            status, body = request(
                server, "POST", "/jobs",
                {"tenant": tenant, "workload": workload, "deploy": deploy},
            )
            assert status == 201, body
            assert body["state"] in ("ADMITTED", "RUNNING")
            jobs.append((body["job_id"], tenant, workload))

        # -- 4th job for a tenant already at its 2-job quota: HTTP 429 ------
        status, body = request(
            server, "POST", "/jobs", {"tenant": "acme", "workload": SMALL}
        )
        assert status == 429
        assert body["code"] == "tenant-jobs-quota"
        assert body["detail"]["max_jobs_per_tenant"] == 2
        assert "acme" in body["message"]

        # -- all three complete with divergence 0 vs standalone -------------
        for job_id, _, workload in jobs:
            final = wait_terminal(server, job_id)
            assert final["state"] == "COMPLETED", final["reason"]
            assert final["result"]["result_ids"] == run_standalone(workload)

        # -- DELETE cancels a running job within the 2s budget --------------
        hold_last_layer_until_cancel(monkeypatch)
        status, body = request(
            server, "POST", "/jobs", {"tenant": "acme", "workload": LONG}
        )
        assert status == 201
        victim = body["job_id"]
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if request(server, "GET", f"/jobs/{victim}")[1]["state"] == "RUNNING":
                break
            time.sleep(0.02)
        started = time.monotonic()
        status, body = request(server, "DELETE", f"/jobs/{victim}")
        elapsed = time.monotonic() - started
        assert status == 200
        assert body["state"] == "CANCELLED"
        assert elapsed < 2.0, f"cancel took {elapsed:.2f}s"

        # -- one scrape exposes every job, labelled -------------------------
        status, text = get_text(server, "/metrics")
        assert status == 200
        for job_id, tenant, _ in jobs:
            labelled = [
                line for line in text.splitlines()
                if line.startswith("strata_")
                and f'job="{job_id}"' in line
                and f'tenant="{tenant}"' in line
            ]
            assert labelled, f"no strata_* series for {job_id}"
        assert "fleet_jobs_submitted_total" in text
        assert 'fleet_jobs_rejected_total{code="tenant-jobs-quota"}' in text


class TestRoutes:
    def test_healthz_reports_version(self, server):
        status, body = request(server, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["version"] == server.service.version
        assert body["worker_budget"] == 8

    def test_toml_submission_body(self, server):
        toml = (
            'tenant = "toml-tenant"\n'
            "[workload]\nlayers = 2\nimage_px = 96\ncell_edge = 8\nwindow = 3\n"
            "[deploy.plan]\nparallelism = 1\n"
        )
        status, body = request(
            server, "POST", "/jobs", toml.encode(), ctype="application/toml"
        )
        assert status == 201
        assert body["tenant"] == "toml-tenant"
        wait_terminal(server, body["job_id"])

    def test_list_filters_by_tenant_and_state(self, server):
        status, body = request(server, "GET", "/jobs?tenant=toml-tenant")
        assert status == 200
        assert body["jobs"]
        assert all(j["tenant"] == "toml-tenant" for j in body["jobs"])
        status, body = request(server, "GET", "/jobs?state=PENDING&tenant=nobody")
        assert body["jobs"] == []

    def test_unknown_job_404(self, server):
        assert request(server, "GET", "/jobs/job-missing")[0] == 404
        assert request(server, "DELETE", "/jobs/job-missing")[0] == 404

    def test_unknown_route_404(self, server):
        assert request(server, "GET", "/nope")[0] == 404
        assert request(server, "POST", "/jobs/extra")[0] == 404

    def test_malformed_bodies_400(self, server):
        status, body = request(
            server, "POST", "/jobs", b"{not json", ctype="application/json"
        )
        assert status == 400
        assert body["code"] == "invalid-submission"
        status, body = request(
            server, "POST", "/jobs", b"= bad", ctype="application/toml"
        )
        assert status == 400
        status, body = request(
            server, "POST", "/jobs", {"deploy": {"elastic": {"max_par": 2}}}
        )
        assert status == 400
        assert "elastic.max_par" in body["message"]

    @pytest.mark.parametrize(
        "bad",
        [
            {"cell_edge": 0},
            {"window": 0},
            {"seed": -1},
            {"seed": "abc"},
            {"defect_rate": -1},
        ],
    )
    def test_values_a_job_would_fail_on_are_rejected_at_submit(self, server, bad):
        """Each of these used to be admitted, given a runner thread, and
        then end FAILED; now it is a 400 and registers nothing."""
        registered = len(server.service.registry)
        status, body = request(
            server, "POST", "/jobs", {"workload": {**SMALL, **bad}}
        )
        assert status == 400, body
        assert body["code"] == "invalid-submission"
        assert f"workload.{next(iter(bad))}" in body["message"]
        assert len(server.service.registry) == registered

    def test_keepalive_round_trips_take_no_nagle_delay(self, server):
        status, body = request(
            server, "POST", "/jobs", {"workload": {**SMALL, "layers": 2}}
        )
        assert status == 201
        job_id = body["job_id"]
        wait_terminal(server, job_id)
        for path in (f"/jobs/{job_id}", "/metrics"):
            assert keepalive_median_ms(server.host, server.port, path) < 15.0, path

    def test_cancel_completed_job_409(self, server):
        status, body = request(
            server, "POST", "/jobs", {"workload": {**SMALL, "layers": 2}}
        )
        job_id = body["job_id"]
        wait_terminal(server, job_id)
        status, body = request(server, "DELETE", f"/jobs/{job_id}")
        assert status == 409
        assert body["code"] == "not-cancellable"
