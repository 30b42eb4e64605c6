"""Admission control: per-tenant quotas with reject-with-reason.

Admission runs before a job is registered, against the registry's current
*active* population (PENDING/ADMITTED/RUNNING — terminal jobs release
their quota). Each check yields a stable machine-readable code plus the
numbers behind the decision, so a 429 tells the tenant exactly which
quota they hit and by how much.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..core.deploy import DeployConfig
from .config import FleetConfig
from .errors import AdmissionError
from .registry import JobRegistry


def requested_parallelism(deploy: DeployConfig) -> int:
    """Replica demand of a validated deploy config, for quota accounting.

    An elastic job is charged its upper bound (the fleet may lend it that
    many workers); a plan is charged its parallelism; a deployment without
    a plan is one pipeline, charged 1.
    """
    if deploy.elastic is not None:
        return deploy.elastic.max_parallelism
    if deploy.plan is not None:
        return deploy.plan.parallelism
    return 1


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission check."""

    admitted: bool
    code: str | None = None
    message: str | None = None
    detail: dict[str, Any] = field(default_factory=dict)

    def raise_if_rejected(self) -> None:
        if not self.admitted:
            raise AdmissionError(self.code or "rejected", self.message or "", self.detail)


class AdmissionController:
    """Evaluates tenant quotas against the live registry."""

    def __init__(self, config: FleetConfig, registry: JobRegistry) -> None:
        self._config = config
        self._registry = registry

    def decide(self, tenant: str, parallelism: int) -> AdmissionDecision:
        """Admit or reject one submission asking for ``parallelism`` replicas."""
        cfg = self._config
        if parallelism > cfg.worker_budget:
            return AdmissionDecision(
                False,
                code="job-exceeds-budget",
                message=(
                    f"job requests {parallelism} replicas but the fleet's "
                    f"worker budget is {cfg.worker_budget}"
                ),
                detail={"requested": parallelism, "worker_budget": cfg.worker_budget},
            )
        active = self._registry.active(tenant)
        if len(active) >= cfg.max_jobs_per_tenant:
            return AdmissionDecision(
                False,
                code="tenant-jobs-quota",
                message=(
                    f"tenant {tenant!r} already has {len(active)} concurrent "
                    f"job(s), quota is {cfg.max_jobs_per_tenant}"
                ),
                detail={
                    "tenant": tenant,
                    "active_jobs": len(active),
                    "max_jobs_per_tenant": cfg.max_jobs_per_tenant,
                },
            )
        committed = sum(r.parallelism for r in active)
        if committed + parallelism > cfg.max_parallelism_per_tenant:
            return AdmissionDecision(
                False,
                code="tenant-parallelism-quota",
                message=(
                    f"tenant {tenant!r} has {committed} replica(s) committed; "
                    f"adding {parallelism} would exceed the per-tenant "
                    f"parallelism quota of {cfg.max_parallelism_per_tenant}"
                ),
                detail={
                    "tenant": tenant,
                    "committed": committed,
                    "requested": parallelism,
                    "max_parallelism_per_tenant": cfg.max_parallelism_per_tenant,
                },
            )
        return AdmissionDecision(True)
