"""The fleet service: registry + admission + scheduler behind one facade.

:class:`FleetService` is the control plane the HTTP API (and tests, and
the benchmark) drive: ``submit`` validates the deploy config through the
:meth:`~repro.core.deploy.DeployConfig.from_dict` path, runs admission,
registers the job and launches a :class:`~repro.fleet.runner.JobRunner`;
``cancel`` drains a running job; ``prometheus`` merges every job's metrics
into one fleet-wide scrape with ``job``/``tenant`` labels stamped on every
sample, so a single Prometheus endpoint serves the whole fleet.
"""

from __future__ import annotations

import threading
import time
from typing import Any

from ..core import DeployConfig
from ..kvstore.api import KVStore
from ..kvstore.memory import MemoryStore
from ..obs.context import _HELP as _OBS_HELP
from ..obs.exporters import render_families, to_prometheus
from ..obs.registry import MetricsRegistry, MetricsSnapshot
from .admission import AdmissionController, requested_parallelism
from .config import FleetConfig
from .errors import FleetError, UnknownJobError
from .registry import (
    ACTIVE_STATES,
    ADMITTED,
    CANCELLED,
    JobRecord,
    JobRegistry,
    new_job_id,
)
from .runner import JobRunner, resolve_workload
from .scheduler import FleetScheduler, JobLease


class FleetService:
    """A resident multi-tenant job control plane."""

    def __init__(
        self,
        config: FleetConfig | None = None,
        store: KVStore | None = None,
        version: str | None = None,
    ) -> None:
        self.config = config if config is not None else FleetConfig()
        self.store = store if store is not None else MemoryStore()
        self.registry = JobRegistry(self.store)
        self.registry.load()
        self.admission = AdmissionController(self.config, self.registry)
        self.scheduler = FleetScheduler(self.config)
        self.version = version if version is not None else _package_version()
        self.started_at = time.time()
        self._lock = threading.Lock()
        self._runners: dict[str, JobRunner] = {}
        #: job id -> final series, job/tenant-labelled and rendered into
        #: exposition lines per family once, when the job ended
        self._finished: dict[str, dict[str, tuple[str, str]]] = {}
        self.metrics = MetricsRegistry()
        for name, help_text in _OBS_HELP.items():
            self.metrics.set_help(name, help_text)
        self._submitted = self.metrics.counter(
            "fleet_jobs_submitted_total", "jobs accepted by admission control"
        )
        self._calibrations = {
            outcome: self.metrics.counter(
                "fleet_calibrations_total",
                "job calibrations computed, or reused from an earlier job",
                labels={"outcome": outcome},
            )
            for outcome in ("computed", "reused")
        }
        self._rejections: dict[str, Any] = {}
        self.metrics.gauge(
            "fleet_jobs_running", "jobs currently in the RUNNING state",
            fn=lambda: float(len(self._runners)),
        )
        self.metrics.gauge(
            "fleet_worker_budget", "total replica budget the scheduler shares"
        ).set(float(self.config.worker_budget))
        self.scheduler.start()

    # -- submission ---------------------------------------------------------

    def submit(self, body: dict[str, Any]) -> JobRecord:
        """Validate, admit, register and launch one job submission.

        ``body`` is the parsed request: ``tenant`` (optional), ``workload``
        (optional spec dict) and ``deploy`` (optional DeployConfig dict —
        the exact ``from_dict`` surface the TOML CLI uses). Raises
        :class:`~repro.core.errors.DeployConfigError` or ``ValueError`` on
        malformed bodies and :class:`~repro.fleet.errors.AdmissionError`
        on quota rejection.
        """
        if not isinstance(body, dict):
            raise ValueError(f"job submission must be a mapping, got {body!r}")
        unknown = set(body) - {"tenant", "workload", "deploy"}
        if unknown:
            raise ValueError(
                f"unknown submission key(s): {', '.join(sorted(unknown))}; "
                "expected tenant, workload, deploy"
            )
        tenant = str(body.get("tenant") or self.config.default_tenant)
        workload = resolve_workload(body.get("workload"))
        deploy = dict(body.get("deploy") or {})
        cfg = DeployConfig.from_dict(deploy)  # validate before admitting
        if cfg.fleet is not None:
            raise ValueError(
                "a job submission cannot carry a [fleet] section; fleet "
                "config belongs to the service, not to one job"
            )
        parallelism = requested_parallelism(cfg)
        with self._lock:
            decision = self.admission.decide(tenant, parallelism)
            if not decision.admitted:
                self._count_rejection(decision.code or "rejected")
                decision.raise_if_rejected()
            record = JobRecord(
                job_id=new_job_id(),
                tenant=tenant,
                workload=workload,
                deploy=deploy,
                parallelism=parallelism,
            )
            self.registry.register(record)
            self._submitted.inc()
        self.registry.transition(record.job_id, ADMITTED)
        self._launch(record, cfg)
        return self.registry.get(record.job_id)

    def _count_rejection(self, code: str) -> None:
        counter = self._rejections.get(code)
        if counter is None:
            counter = self.metrics.counter(
                "fleet_jobs_rejected_total",
                "submissions rejected by admission control",
                labels={"code": code},
            )
            self._rejections[code] = counter
        counter.inc()

    def _launch(self, record: JobRecord, cfg: DeployConfig) -> None:
        runner = JobRunner(
            record.job_id,
            self.registry,
            workload=record.workload,
            deploy=cfg,
            calibrations=self.store,
            on_calibration=lambda outcome: self._calibrations[outcome].inc(),
            on_done=self._runner_done,
        )
        elastic = cfg.elastic
        lease = JobLease(
            record.job_id,
            cap=record.parallelism,
            floor=1 if elastic is None else elastic.min_parallelism,
            elastic=elastic is not None,
            controller_fn=lambda: runner.controller,
        )
        with self._lock:
            self._runners[record.job_id] = runner
        self.scheduler.attach(lease)
        runner.start()

    def _runner_done(self, runner: JobRunner) -> None:
        self.scheduler.detach(runner.job_id)
        # a finished job's series no longer change: render them once, here
        final = render_families(
            self._labelled(runner.job_id, runner.final_snapshot).samples
        )
        with self._lock:
            self._runners.pop(runner.job_id, None)
            self._finished[runner.job_id] = final
            # keep a bounded window of finished jobs' final series
            while len(self._finished) > 256:
                self._finished.pop(next(iter(self._finished)))

    # -- job control --------------------------------------------------------

    def get(self, job_id: str) -> JobRecord:
        return self.registry.get(job_id)

    def list(
        self, tenant: str | None = None, state: str | None = None
    ) -> list[JobRecord]:
        return self.registry.list(tenant=tenant, state=state)

    def cancel(self, job_id: str, timeout: float = 10.0) -> JobRecord:
        """Cancel a job; for running jobs, drains and waits for CANCELLED."""
        record = self.registry.get(job_id)
        with self._lock:
            runner = self._runners.get(job_id)
        if runner is None:
            if record.state in ACTIVE_STATES:
                return self.registry.transition(
                    job_id, CANCELLED, reason="cancelled before launch"
                )
            raise FleetError(
                f"job {job_id!r} already finished ({record.state}); nothing to cancel"
            )
        runner.cancel()
        runner.join(timeout=timeout)
        return self.registry.get(job_id)

    def wait(self, job_id: str, timeout: float = 60.0) -> JobRecord:
        """Block until one job reaches a terminal state (tests, benchmark)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            record = self.registry.get(job_id)
            if not record.active:
                # still listed while it hands its final snapshot over
                with self._lock:
                    runner = self._runners.get(job_id)
                if runner is not None:
                    runner.join(timeout=max(0.0, deadline - time.monotonic()))
                return record
            time.sleep(0.02)
        raise FleetError(f"job {job_id!r} still {self.registry.get(job_id).state}")

    # -- observability ------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        """The live series: the fleet's own and every running job's,
        job/tenant-labelled. Finished jobs' series are in :meth:`prometheus`."""
        return self._scrape()[0]

    def _scrape(self) -> tuple[MetricsSnapshot, list[dict[str, tuple[str, str]]]]:
        """The live snapshot and the finished jobs' rendered series, read
        under one lock so a job ending mid-scrape is in exactly one of them."""
        merged = self.metrics.snapshot()
        with self._lock:
            finished = list(self._finished.values())
            running = list(self._runners.values())
        for runner in running:
            job_snap = self._labelled(runner.job_id, runner.snapshot())
            merged.samples.extend(job_snap.samples)
        return merged, finished

    def _labelled(self, job_id: str, snapshot: MetricsSnapshot) -> MetricsSnapshot:
        try:
            tenant = self.registry.get(job_id).tenant
        except UnknownJobError:  # pragma: no cover - registry is append-only
            tenant = "unknown"
        return snapshot.with_labels(job=job_id, tenant=tenant)

    def prometheus(self) -> str:
        """One fleet-wide scrape in Prometheus text exposition format: the
        live series rendered now, each finished job's lines as kept."""
        live, finished = self._scrape()
        return to_prometheus(live, self.metrics, finished)

    def health(self) -> dict[str, Any]:
        return {
            "status": "ok",
            "version": self.version,
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "jobs": self.registry.counts(),
            "worker_budget": self.config.worker_budget,
            "shares": self.scheduler.shares(),
        }

    # -- shutdown -----------------------------------------------------------

    def drain(self, timeout: float = 30.0) -> None:
        """Graceful shutdown: cancel every live job, then stop scheduling."""
        with self._lock:
            runners = list(self._runners.values())
        for runner in runners:
            try:
                runner.cancel()
            except FleetError:
                pass  # distributed jobs run to completion; wait below
        deadline = time.monotonic() + timeout
        for runner in runners:
            runner.join(timeout=max(0.1, deadline - time.monotonic()))
        for record in self.registry.active():
            try:
                self.registry.transition(
                    record.job_id, CANCELLED, reason="service shutdown"
                )
            except Exception:
                pass  # runner won the race to a terminal state
        self.scheduler.stop()


def _package_version() -> str:
    from .. import __version__

    return __version__
