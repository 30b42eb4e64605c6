"""The job registry: lifecycle state machine with persisted transitions.

Every job the control plane accepts is a :class:`JobRecord` moving through

    PENDING -> ADMITTED -> RUNNING -> {COMPLETED, FAILED, CANCELLED}

(cancellation and failure are reachable from every non-terminal state, so
a job cancelled between admission and launch never starts). Each
transition is appended to the record's history and the whole record is
re-persisted on the KV store under ``fleet/jobs/<id>``, which makes the
registry rebuildable after a service restart: jobs that were mid-flight
when the process died come back as FAILED with an explicit reason rather
than silently vanishing.
"""

from __future__ import annotations

import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Iterator

from ..kvstore.api import KVStore
from .errors import InvalidTransitionError, UnknownJobError

PENDING = "PENDING"
ADMITTED = "ADMITTED"
RUNNING = "RUNNING"
COMPLETED = "COMPLETED"
FAILED = "FAILED"
CANCELLED = "CANCELLED"

#: states that still hold (or will hold) fleet resources
ACTIVE_STATES = frozenset({PENDING, ADMITTED, RUNNING})
TERMINAL_STATES = frozenset({COMPLETED, FAILED, CANCELLED})

#: the lifecycle machine: state -> states reachable from it
TRANSITIONS: dict[str, frozenset[str]] = {
    PENDING: frozenset({ADMITTED, FAILED, CANCELLED}),
    ADMITTED: frozenset({RUNNING, FAILED, CANCELLED}),
    RUNNING: frozenset({COMPLETED, FAILED, CANCELLED}),
    COMPLETED: frozenset(),
    FAILED: frozenset(),
    CANCELLED: frozenset(),
}

KEY_PREFIX = "fleet/jobs/"


def new_job_id() -> str:
    """A short unique job id (sortable enough for humans, unique enough
    for a fleet)."""
    return f"job-{uuid.uuid4().hex[:12]}"


@dataclass
class JobRecord:
    """One job as the control plane sees it.

    ``deploy`` and ``workload`` are plain dicts (the submitted body after
    validation), so the record round-trips through the KV store and the
    HTTP API without touching live objects. ``parallelism`` is the
    replica demand admission charged against the tenant's quota.
    """

    job_id: str
    tenant: str
    state: str = PENDING
    deploy: dict[str, Any] = field(default_factory=dict)
    workload: dict[str, Any] = field(default_factory=dict)
    parallelism: int = 1
    created: float = field(default_factory=time.time)
    reason: str | None = None
    result: dict[str, Any] | None = None
    transitions: list[dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "state": self.state,
            "deploy": self.deploy,
            "workload": self.workload,
            "parallelism": self.parallelism,
            "created": self.created,
            "reason": self.reason,
            "result": self.result,
            "transitions": list(self.transitions),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "JobRecord":
        return cls(**data)

    @property
    def active(self) -> bool:
        return self.state in ACTIVE_STATES


class JobRegistry:
    """Thread-safe job table, persisted transition-by-transition."""

    def __init__(self, store: KVStore, prefix: str = KEY_PREFIX) -> None:
        self._store = store
        self._prefix = prefix
        self._lock = threading.Lock()
        self._jobs: dict[str, JobRecord] = {}
        #: the active subset of ``_jobs``: admission never scans finished records
        self._active: dict[str, JobRecord] = {}

    # -- persistence --------------------------------------------------------

    def _persist(self, record: JobRecord) -> None:
        """Keep the active index in step with the record, and store it."""
        if record.active:
            self._active[record.job_id] = record
        else:
            self._active.pop(record.job_id, None)
        self._store.put(self._prefix + record.job_id, record.to_dict())

    def load(self) -> int:
        """Rehydrate from the store; orphaned in-flight jobs become FAILED.

        Returns the number of records loaded. Meant for service startup
        against a persistent (LSM) store: COMPLETED/FAILED/CANCELLED jobs
        come back verbatim, while jobs that were PENDING/ADMITTED/RUNNING
        when the previous process died are marked FAILED with an explicit
        reason — their runner threads did not survive the restart.
        """
        loaded = 0
        with self._lock:
            for key, value in self._store.scan(self._prefix, self._prefix + "\x7f"):
                record = JobRecord.from_dict(value)
                if record.state in ACTIVE_STATES:
                    self._append_transition(
                        record, FAILED, "control plane restarted while job was in flight"
                    )
                    self._persist(record)
                self._jobs[record.job_id] = record
                loaded += 1
        return loaded

    # -- lifecycle ----------------------------------------------------------

    def register(self, record: JobRecord) -> JobRecord:
        """Add a new PENDING job and persist it."""
        with self._lock:
            if record.job_id in self._jobs:
                raise InvalidTransitionError(f"job {record.job_id!r} already registered")
            if not record.transitions:
                record.transitions.append(
                    {"state": record.state, "at": record.created, "reason": None}
                )
            self._jobs[record.job_id] = record
            self._persist(record)
        return record

    @staticmethod
    def _append_transition(record: JobRecord, state: str, reason: str | None) -> None:
        record.state = state
        record.reason = reason if reason is not None else record.reason
        record.transitions.append({"state": state, "at": time.time(), "reason": reason})

    def transition(
        self,
        job_id: str,
        state: str,
        reason: str | None = None,
        result: dict[str, Any] | None = None,
    ) -> JobRecord:
        """Move a job to ``state``, validate, persist, and return it."""
        if state not in TRANSITIONS:
            raise InvalidTransitionError(f"unknown job state {state!r}")
        with self._lock:
            record = self._jobs.get(job_id)
            if record is None:
                raise UnknownJobError(f"unknown job {job_id!r}")
            if state not in TRANSITIONS[record.state]:
                raise InvalidTransitionError(
                    f"job {job_id!r} cannot move {record.state} -> {state}"
                )
            self._append_transition(record, state, reason)
            if result is not None:
                record.result = result
            self._persist(record)
        return record

    # -- queries ------------------------------------------------------------

    def get(self, job_id: str) -> JobRecord:
        with self._lock:
            record = self._jobs.get(job_id)
        if record is None:
            raise UnknownJobError(f"unknown job {job_id!r}")
        return record

    def list(
        self, tenant: str | None = None, state: str | None = None
    ) -> list[JobRecord]:
        """Records newest-first, optionally filtered by tenant and state."""
        with self._lock:
            records = list(self._jobs.values())
        if tenant is not None:
            records = [r for r in records if r.tenant == tenant]
        if state is not None:
            records = [r for r in records if r.state == state]
        return sorted(records, key=lambda r: (-r.created, r.job_id))

    def active(self, tenant: str | None = None) -> list[JobRecord]:
        """Jobs still holding (or about to hold) fleet resources."""
        with self._lock:
            records = list(self._active.values())
        if tenant is not None:
            records = [r for r in records if r.tenant == tenant]
        return records

    def counts(self) -> dict[str, int]:
        """Job count per state (zero-filled), for /healthz and metrics."""
        out = {state: 0 for state in TRANSITIONS}
        with self._lock:
            for record in self._jobs.values():
                out[record.state] += 1
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)

    def __iter__(self) -> Iterator[JobRecord]:
        with self._lock:
            records = list(self._jobs.values())
        return iter(records)
