"""The fleet's stored calibrations: keyed by the fields they read, computed
once per key, byte-equal to a recomputation, and kept across a restart.

A ``thermal`` job's Alg. 1 thresholds and a ``reconstruct`` job's laser
fit live in the service's store under ``fleet/calibration/v1/...``; every
job copies the stored payload into its own store under its own id.
``run_standalone`` passes an empty store, so the divergence oracle always
recomputes.
"""

import threading
import urllib.request

import numpy as np
import pytest

from repro.am import scanpath
from repro.core import Strata
from repro.fleet import COMPLETED, FleetConfig, FleetHTTPServer, FleetService, run_standalone
from repro.fleet import runner as runner_module
from repro.fleet.runner import CALIBRATION_PREFIX, build_pipeline, resolve_workload
from repro.kvstore import MemoryStore
from repro.kvstore.lsm import LSMStore
from repro.serde import encode_value

SPECS = {
    "thermal": {"kind": "thermal", "image_px": 160, "layers": 2, "seed": 0},
    "reconstruct": {"kind": "reconstruct", "image_px": 96, "layers": 2, "seed": 0},
}

#: per kind, the (module, name) of the function its calibration calls once
CALIBRATES = {
    "thermal": (runner_module, "calibrate_thresholds"),
    "reconstruct": (scanpath, "synthesize_laser_calibration"),
}

#: values for the spec fields no calibration reads
OUTSIDE_THE_KEY = {
    "name": "another-job",
    "layers": 5,
    "window": 2,
    "defect_rate": 0.0,
    "streak_rate": 3.0,
}


def build(spec, calibrations):
    """Build ``spec``'s pipeline; returns its job store as encoded values."""
    strata = Strata(engine_mode="threaded")
    build_pipeline(strata, resolve_workload(spec), calibrations)
    return {key: encode_value(value) for key, value in strata.kv.scan()}


def stored(spec):
    """The one calibration building ``spec`` stores: (key, payload)."""
    calibrations = MemoryStore()
    build(spec, calibrations)
    [(key, payload)] = list(calibrations.scan())
    return key.decode(), payload


def counting(monkeypatch, kind):
    """Record every call of ``kind``'s calibration function."""
    owner, name = CALIBRATES[kind]
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.fixture()
def service():
    svc = FleetService(FleetConfig(worker_budget=8, tick_s=0.05))
    yield svc
    svc.drain(timeout=30.0)


def calibrations_total(service, outcome):
    return service.metrics.snapshot().value("fleet_calibrations_total", outcome=outcome)


class TestKey:
    @pytest.mark.parametrize("field", sorted(OUTSIDE_THE_KEY))
    @pytest.mark.parametrize("kind", sorted(SPECS))
    def test_fields_outside_the_key_leave_the_payload_byte_equal(self, kind, field):
        key, payload = stored(SPECS[kind])
        other_key, other = stored({**SPECS[kind], field: OUTSIDE_THE_KEY[field]})
        assert other_key == key
        assert encode_value(other) == encode_value(payload)

    @pytest.mark.parametrize(
        "kind, field, value",
        [
            ("thermal", "seed", 1),
            ("thermal", "image_px", 96),
            ("reconstruct", "seed", 1),
            ("reconstruct", "image_px", 160),
        ],
    )
    def test_fields_the_calibration_reads_change_the_key(self, kind, field, value):
        assert stored({**SPECS[kind], field: value})[0] != stored(SPECS[kind])[0]

    def test_cell_edge_stays_in_the_thresholds_key_when_the_values_agree(self):
        """The key follows what the calibration reads, not what it returns:
        edges 4 and 8 give equal thresholds at 160 px, and still two keys."""
        key8, payload8 = stored({**SPECS["thermal"], "cell_edge": 8})
        key4, payload4 = stored({**SPECS["thermal"], "cell_edge": 4})
        assert encode_value(payload4) == encode_value(payload8)
        assert key4 != key8

    def test_a_reconstruct_job_does_not_read_cell_edge(self):
        assert stored({**SPECS["reconstruct"], "cell_edge": 4}) == stored(
            SPECS["reconstruct"]
        )

    def test_numbers_sent_as_strings_name_the_same_key(self):
        spec = SPECS["thermal"]
        as_strings = {**spec, "seed": str(spec["seed"]), "image_px": str(spec["image_px"])}
        assert stored(as_strings) == stored(spec)


class TestReuse:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", sorted(SPECS))
    def test_a_reused_calibration_is_byte_equal_to_a_recomputation(self, kind, seed):
        """The ``fleet_soak`` shape: 160 px, job seeds 0-3."""
        spec = {**SPECS[kind], "image_px": 160, "seed": seed}
        shared = MemoryStore()
        build(spec, shared)
        later = {**spec, "name": "later-job"}
        assert build(later, shared) == build(later, MemoryStore())

    @pytest.mark.parametrize("kind", sorted(SPECS))
    def test_sequential_same_key_jobs_calibrate_once(self, service, monkeypatch, kind):
        calls = counting(monkeypatch, kind)
        workloads = [
            {**SPECS[kind], "name": f"job-{i}", "layers": 2 + i} for i in range(3)
        ]
        finals = []
        for i, workload in enumerate(workloads):
            record = service.submit({"tenant": f"tenant-{i}", "workload": workload})
            finals.append(service.wait(record.job_id, timeout=90))
        assert len(calls) == 1
        assert calibrations_total(service, "computed") == 1.0
        assert calibrations_total(service, "reused") == len(workloads) - 1
        for workload, final in zip(workloads, finals):
            assert final.state == COMPLETED, final.reason
            assert final.result["result_ids"] == run_standalone(workload)
        # the oracle never reads the service's store: it recomputed each time
        assert len(calls) == 1 + len(workloads)

    @pytest.mark.parametrize("kind", sorted(SPECS))
    def test_concurrent_same_spec_jobs_have_divergence_zero(self, service, kind):
        jobs = 8
        start = threading.Barrier(jobs)
        records = []

        def submit(i):
            start.wait(timeout=30)
            records.append(
                service.submit({"tenant": f"tenant-{i}", "workload": SPECS[kind]})
            )

        threads = [threading.Thread(target=submit, args=(i,)) for i in range(jobs)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert len(records) == jobs
        expected = run_standalone(SPECS[kind])
        for record in records:
            final = service.wait(record.job_id, timeout=120)
            assert final.state == COMPLETED, final.reason
            assert final.result["result_ids"] == expected
        computed = calibrations_total(service, "computed")
        assert computed >= 1
        assert computed + calibrations_total(service, "reused") == jobs

    def test_metrics_show_computed_and_reused(self):
        service = FleetService(FleetConfig(worker_budget=4, tick_s=0.05))
        server = FleetHTTPServer(service, port=0)
        server.start()
        try:
            for _ in range(2):
                record = service.submit({"workload": SPECS["reconstruct"]})
                assert service.wait(record.job_id, timeout=90).state == COMPLETED
            with urllib.request.urlopen(server.url + "/metrics", timeout=30) as resp:
                lines = resp.read().decode().splitlines()
        finally:
            server.stop(drain_timeout=30.0)
        assert 'fleet_calibrations_total{outcome="computed"} 1' in lines
        assert 'fleet_calibrations_total{outcome="reused"} 1' in lines

    def test_a_restarted_service_reuses_the_stored_calibration(
        self, tmp_path, monkeypatch
    ):
        config = FleetConfig(worker_budget=4, tick_s=0.05)
        store = LSMStore(tmp_path)
        first = FleetService(config, store=store)
        record = first.submit({"workload": SPECS["reconstruct"]})
        assert first.wait(record.job_id, timeout=90).state == COMPLETED
        counts = first.registry.counts()
        first.drain(timeout=30.0)
        store.close()

        calls = counting(monkeypatch, "reconstruct")
        store = LSMStore(tmp_path)
        try:
            second = FleetService(config, store=store)
            # the calibration rows are not jobs: the registry loads as it was
            assert second.registry.counts() == counts
            workload = {**SPECS["reconstruct"], "name": "after-restart"}
            final = second.wait(second.submit({"workload": workload}).job_id, timeout=90)
            assert calls == []
            assert calibrations_total(second, "reused") == 1.0
            assert calibrations_total(second, "computed") == 0.0
            second.drain(timeout=30.0)
        finally:
            store.close()
        assert final.state == COMPLETED, final.reason
        assert final.result["result_ids"] == run_standalone(workload)


#: the stored payloads of one fixed spec per kind, recorded per key
#: version. A change to the code that computes a calibration fails this
#: test: record the new values under a bumped ``CALIBRATION_PREFIX``, or a
#: kept ``--state-dir`` goes on serving the old ones.
GOLDEN = {
    "fleet/calibration/v1": {
        "thresholds": {
            "very_cold_below": 131.50947808159722,
            "cold_below": 135.70658908420137,
            "warm_above": 144.10081108940972,
            "very_warm_above": 148.29792209201386,
        },
        "laser": {
            "weights": [
                [0.9818174732302878, 1.6751666660966633, -0.5875284949429469],
                [6.5752985551915915, 2.3295355831311877, -1.8358141809140036],
            ],
            "top_k": 64,
            "px_per_mm": 2.0,
        },
    },
}


class TestGoldenPayloads:
    SPEC = {"image_px": 160, "seed": 0}

    def test_thresholds(self):
        key, payload = stored({**self.SPEC, "kind": "thermal"})
        assert key.startswith(f"{CALIBRATION_PREFIX}/thresholds/")
        assert payload == pytest.approx(GOLDEN[CALIBRATION_PREFIX]["thresholds"], rel=1e-12)

    def test_laser_fit(self):
        key, payload = stored({**self.SPEC, "kind": "reconstruct"})
        golden = GOLDEN[CALIBRATION_PREFIX]["laser"]
        assert key.startswith(f"{CALIBRATION_PREFIX}/laser/")
        np.testing.assert_allclose(payload["weights"], golden["weights"], rtol=1e-9)
        assert payload["top_k"] == golden["top_k"]
        assert payload["px_per_mm"] == golden["px_per_mm"]
