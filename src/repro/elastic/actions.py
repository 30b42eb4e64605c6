"""The typed adaptation-action algebra consumed by the elastic controller.

The original elastic API spoke only one word: ``ScalePolicy.decide(group,
signals, current) -> int`` — a replica count. Runtime re-planning needs a
richer vocabulary (Strider, arXiv 1705.05688: switch the *logical plan*
from workload statistics), so policies now return a sequence of typed
:data:`AdaptationAction` values:

* :class:`Rescale`       — change a keyed replica group's parallelism;
* :class:`Unfuse`        — break a fused linear chain into per-operator
                           nodes (pipeline parallelism across threads);
* :class:`Fuse`          — re-fuse a previously unfused chain;
* :class:`Migrate`       — move a pipeline stage to another dist worker;
* :class:`NoOp`          — explicitly decide nothing (with a reason).

:class:`AdaptationPolicy` is the new protocol: one ``decide(view)`` over a
:class:`WorkloadView` snapshot of every group's and chain's signals.
A 3-argument :class:`~repro.elastic.policy.ScalePolicy` decides replica
counts inside one: ``CostModelPolicy(scale=my_policy)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Protocol, Sequence, Union, runtime_checkable

from .policy import GroupSignals


@dataclass(frozen=True)
class Rescale:
    """Change ``group``'s replica count to ``target`` (pre-clamping)."""

    group: str
    target: int
    kind = "rescale"

    def describe(self) -> str:
        return f"rescale {self.group} -> x{self.target}"


@dataclass(frozen=True)
class Fuse:
    """Collapse the (currently unfused) chain back into one fused node."""

    chain: str
    kind = "fuse"

    def describe(self) -> str:
        return f"fuse {self.chain}"


@dataclass(frozen=True)
class Unfuse:
    """Break the fused chain into one node (and thread) per constituent."""

    chain: str
    kind = "unfuse"

    def describe(self) -> str:
        return f"unfuse {self.chain}"


@dataclass(frozen=True)
class Migrate:
    """Move pipeline stage ``stage`` onto dist worker ``to_worker``."""

    stage: str
    to_worker: str
    kind = "migrate"

    def describe(self) -> str:
        return f"migrate {self.stage} -> {self.to_worker}"


@dataclass(frozen=True)
class NoOp:
    """An explicit decision to change nothing this tick."""

    reason: str = ""
    kind = "noop"

    def describe(self) -> str:
        return f"noop({self.reason})" if self.reason else "noop"


#: The closed set of decisions an AdaptationPolicy may return.
AdaptationAction = Union[Rescale, Fuse, Unfuse, Migrate, NoOp]


@dataclass(frozen=True)
class ChainSignals:
    """One tick's worth of load evidence for one adaptable linear chain.

    ``mode``          ``"vectorized"``/``"scalar"`` for a fused chain,
                      ``"unfused"`` after an :class:`Unfuse`;
    ``members``       the constituent operators' original node names;
    ``queue_fill``    the chain head's input-queue depth / capacity;
    ``busy_fraction`` mean fraction of the tick the chain's node(s) spent
                      processing.

    ``mode`` is informational: a vectorized chain picks scalar-vs-block
    per run from what it measures (:mod:`repro.spe.plan`); no action
    changes it.
    """

    name: str
    mode: str
    members: tuple[str, ...]
    fused: bool
    queue_fill: float = 0.0
    busy_fraction: float = 0.0


@dataclass(frozen=True)
class WorkloadView:
    """Everything a policy may look at for one decision round.

    ``groups``  per-replica-group :class:`GroupSignals`;
    ``chains``  per-adaptable-chain :class:`ChainSignals`;
    ``workers`` per-dist-worker load summaries (busy fraction and stage
                names), present only under a distributed coordinator;
    ``bounds``  the live (min, max) parallelism clamp;
    ``tick_s``  the sampling period the deltas were measured over.
    """

    groups: Mapping[str, GroupSignals] = field(default_factory=dict)
    chains: Mapping[str, ChainSignals] = field(default_factory=dict)
    workers: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    bounds: tuple[int, int] = (1, 4)
    tick_s: float = 0.25


@runtime_checkable
class AdaptationPolicy(Protocol):
    """Pluggable decision logic over the full workload view."""

    def decide(self, view: WorkloadView) -> Sequence[AdaptationAction]:
        """The actions to apply this tick (may be empty)."""
        ...
