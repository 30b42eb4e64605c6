"""The typed adaptation-action algebra consumed by the elastic controller.

Each tick the controller snapshots every replica group's
:class:`GroupSignals` and every adaptable chain's :class:`ChainSignals`
into one :class:`WorkloadView`, and
:class:`~repro.elastic.replan.CostModelPolicy` turns it into a list of
typed :data:`AdaptationAction` values (Strider, arXiv 1705.05688: switch
the *logical plan* from workload statistics):

* :class:`Rescale`       — change a keyed replica group's parallelism;
* :class:`Unfuse`        — break a fused linear chain into per-operator
                           nodes (pipeline parallelism across threads);
* :class:`Fuse`          — re-fuse a previously unfused chain.

An empty list decides nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Union


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


#: The closed set of decisions the policy may return.
AdaptationAction = Union[Rescale, Fuse, Unfuse]


@dataclass(frozen=True)
class GroupSignals:
    """One tick's worth of load evidence for one replica group.

    ``queue_fill``          boundary-queue depth as a fraction of capacity;
    ``busy_fraction``       mean fraction of the tick the group's replicas
                            spent processing (0..~1 per replica);
    ``qos_violation_delta`` QoS watchdog violations since the last tick;
    ``parallelism``         the group's current replica count.
    """

    queue_fill: float = 0.0
    busy_fraction: float = 0.0
    qos_violation_delta: int = 0
    parallelism: int = 1


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
    """Everything the policy looks at for one decision round.

    ``groups`` per-replica-group :class:`GroupSignals`;
    ``chains`` per-adaptable-chain :class:`ChainSignals`.
    """

    groups: Mapping[str, GroupSignals] = field(default_factory=dict)
    chains: Mapping[str, ChainSignals] = field(default_factory=dict)
