"""The fleet scheduler: fair-sharing a bounded worker budget across jobs.

The fleet does not own a thread pool — each job's replicas are the
elastic runtime's replica threads. What the fleet *does* own is the
budget: a total replica count the machine is allowed to spend. The
scheduler divides that budget fairly across the currently RUNNING jobs
and lends each job its share by moving the job's
:class:`~repro.elastic.controller.ElasticController` bounds at runtime
(:meth:`set_bounds`): the controller's own QoS policy still decides when
to use the lent headroom, but it can never scale past its share, and when
a new job arrives the shares shrink and running jobs hand replicas back
at their next policy tick.

Static (non-elastic) jobs hold their declared parallelism for their whole
run; the scheduler subtracts that from the budget before sharing the rest
among the elastic jobs.
"""

from __future__ import annotations

import logging
import threading
from typing import Any, Callable

from .config import FleetConfig

logger = logging.getLogger("repro.fleet.scheduler")


def fair_shares(
    budget: int,
    caps: dict[str, int],
    floor: int = 1,
) -> dict[str, int]:
    """Split ``budget`` replicas across jobs, respecting per-job caps.

    Deterministic (jobs sorted by id), work-conserving (leftover budget
    below one job's cap is re-offered to the others), and floored: every
    job gets at least ``floor`` even when the fleet is oversubscribed —
    a job must always be able to make progress, so the floor is a
    guarantee, not a budget split.
    """
    if not caps:
        return {}
    shares = {job: floor for job in caps}
    remaining = budget - floor * len(caps)
    # round-robin the remaining budget one replica at a time so uneven
    # splits stay maximally even (e.g. budget 8 over 3 jobs -> 3/3/2)
    while remaining > 0:
        progressed = False
        for job in sorted(caps):
            if remaining <= 0:
                break
            if shares[job] < caps[job]:
                shares[job] += 1
                remaining -= 1
                progressed = True
        if not progressed:  # every job is at its cap
            break
    return shares


class FleetScheduler:
    """Periodically recomputes shares and lends them to live controllers."""

    def __init__(self, config: FleetConfig) -> None:
        self._config = config
        self._lock = threading.Lock()
        # job_id -> callable returning the job's live lease view, set by
        # the service as runners start and cleared as they finish
        self._jobs: dict[str, "JobLease"] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._shares: dict[str, int] = {}

    # -- membership (called by the service) ---------------------------------

    def attach(self, lease: "JobLease") -> None:
        with self._lock:
            self._jobs[lease.job_id] = lease
        self.tick()

    def detach(self, job_id: str) -> None:
        with self._lock:
            self._jobs.pop(job_id, None)
        self.tick()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="fleet-scheduler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self._config.tick_s):
            try:
                self.tick()
            except Exception:  # pragma: no cover - defensive: keep scheduling
                logger.exception("fleet scheduler tick failed")

    # -- the share computation ----------------------------------------------

    def shares(self) -> dict[str, int]:
        """The most recently applied share per job id (for metrics/tests)."""
        with self._lock:
            return dict(self._shares)

    def tick(self) -> None:
        """Recompute fair shares and push them into the live controllers."""
        with self._lock:
            leases = list(self._jobs.values())
        static = [l for l in leases if not l.elastic]
        elastic = [l for l in leases if l.elastic]
        budget = self._config.worker_budget
        shares: dict[str, int] = {}
        for lease in static:
            shares[lease.job_id] = lease.cap
            budget -= lease.cap
        if elastic:
            budget = max(budget, self._config.min_share * len(elastic))
            shares.update(
                fair_shares(
                    budget,
                    {l.job_id: l.cap for l in elastic},
                    floor=self._config.min_share,
                )
            )
        for lease in elastic:
            lease.lend(shares[lease.job_id])
        with self._lock:
            self._shares = shares


class JobLease:
    """One job's scheduling view: its cap and a way to lend it replicas.

    ``controller_fn`` resolves to the job's live ElasticController (or
    None while it is still deploying / after it finished); ``cap`` is the
    job's own configured upper bound, ``floor`` its configured minimum.
    """

    def __init__(
        self,
        job_id: str,
        cap: int,
        floor: int = 1,
        elastic: bool = True,
        controller_fn: Callable[[], Any] | None = None,
    ) -> None:
        self.job_id = job_id
        self.cap = max(1, cap)
        self.floor = max(1, min(floor, self.cap))
        self.elastic = elastic
        self._controller_fn = controller_fn
        self.granted: int | None = None
        # the share a live controller last received: a grant made while the
        # job is still deploying is lent again on every tick until one has
        self._lent: int | None = None

    def lend(self, share: int) -> None:
        """Grant this job ``share`` replicas (clamped to its own bounds)."""
        share = max(self.floor, min(self.cap, share))
        self.granted = share
        if share == self._lent:
            return
        controller = self._controller_fn() if self._controller_fn else None
        if controller is not None and hasattr(controller, "set_bounds"):
            controller.set_bounds(min(self.floor, share), share)
            self._lent = share
