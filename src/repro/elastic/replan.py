"""The elastic policy and the adaptive-chain registry.

This module holds the pure decision logic and bookkeeping of runtime
adaptation — no drain/splice mechanics (those live in
:class:`~repro.elastic.controller.ElasticController`):

* :class:`ReplanConfig`    — validated knobs, resolved into
                             ``ElasticConfig.replan`` and round-tripped
                             through the ``[elastic.replan]`` TOML table;
* :class:`AdaptiveChain`   — one fused linear chain the controller may
                             rewrite at runtime, with its live nodes;
* :func:`discover_chains`  — find every adaptable chain in a compiled
                             plan (fused, single-input, outside every
                             keyed replica group);
* :class:`CostModelPolicy` — the one policy: a hysteresis rule for
                             replica counts plus a chain cost model over
                             the observed busy/queue statistics.

A replica group doubles after ``UP_TICKS`` overloaded ticks in a row (at
or over either ``UP_*`` threshold) and at once on a QoS watchdog
violation: a missed recoat-gap deadline means the build is already
printing over unassessed layers. It steps down one replica at a time
after ``DOWN_TICKS`` idle ticks (at or under both ``DOWN_*`` thresholds,
no violation), so lulls between layer bursts do not thrash it.

The cost model is deliberately simple and explainable. For a fused chain,
fusion saves one queue hop per edge but serializes the members onto one
thread: when the chain is both backlogged and busy, the pipeline
parallelism regained by unfusing (up to ``len(members)`` threads) beats
the hop cost, so the model emits :class:`Unfuse`; when an unfused chain
goes idle, the hop cost dominates again and it emits :class:`Fuse`.
Whether a fused chain's rows run scalar or columnar is not decided here:
:class:`~repro.spe.plan.VectorizedFusedOperator` picks per run from the
row expansion it measures, with no drain.
"""

from __future__ import annotations

from dataclasses import dataclass
from ..spe.plan import FusedOperator
from ..spe.query import Node
from ..spe.stream import Stream
from .actions import (
    AdaptationAction,
    ChainSignals,
    Fuse,
    GroupSignals,
    Rescale,
    Unfuse,
    WorkloadView,
)

#: plan mutations one controller tick may apply (rescales are budgeted
#: separately, by the group cooldown)
MAX_ACTIONS_PER_TICK = 1
#: a replica group is overloaded at this boundary-queue fill or busy
#: fraction, and doubles after UP_TICKS such ticks in a row
UP_QUEUE_FILL = 0.5
UP_BUSY = 0.85
UP_TICKS = 2
#: a replica group is idle at or under both, and sheds one replica after
#: DOWN_TICKS such ticks in a row
DOWN_QUEUE_FILL = 0.10
DOWN_BUSY = 0.35
DOWN_TICKS = 6


@dataclass(frozen=True)
class ReplanConfig:
    """Knobs for runtime plan adaptation (``ElasticConfig.replan``).

    ``cooldown_s`` is the minimum spacing between adaptations of one
    chain; one tick applies at most ``MAX_ACTIONS_PER_TICK`` of them.
    ``streak_ticks`` is the hysteresis: a threshold must hold for that
    many consecutive ticks before the matching action fires. The
    remaining thresholds parameterize the cost model — see the module
    docstring for how each one is read.
    """

    cooldown_s: float = 1.0
    streak_ticks: int = 2
    unfuse_queue_fill: float = 0.5
    unfuse_busy: float = 0.8
    refuse_queue_fill: float = 0.05
    refuse_busy: float = 0.2

    def __post_init__(self) -> None:
        if self.cooldown_s < 0:
            raise ValueError("replan.cooldown_s must be non-negative")
        if self.streak_ticks < 1:
            raise ValueError("replan.streak_ticks must be >= 1")
        for name in (
            "unfuse_queue_fill",
            "unfuse_busy",
            "refuse_queue_fill",
            "refuse_busy",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"replan.{name} must be within [0, 1]")
        if self.refuse_queue_fill > self.unfuse_queue_fill:
            raise ValueError(
                "replan.refuse_queue_fill must not exceed unfuse_queue_fill "
                "(the fuse/unfuse thresholds would oscillate)"
            )

    @classmethod
    def resolve(cls, replan: "ReplanConfig | bool | None") -> "ReplanConfig | None":
        """Normalize the ``replan=`` argument of user-facing APIs."""
        if replan is None or replan is False:
            return None
        if replan is True:
            return cls()
        if isinstance(replan, cls):
            return replan
        raise TypeError(
            f"replan must be bool, None or ReplanConfig, got {replan!r}"
        )

    def describe(self) -> str:
        return f"cooldown {self.cooldown_s}s"


@dataclass
class AdaptiveChain:
    """One linear operator chain the controller may rewrite at runtime.

    ``name`` is the stable chain identity: the fused node's name at
    discovery time, kept through every unfuse/fuse round trip. ``nodes``
    tracks the chain's current live node(s) — one fused node, or one node
    per member after an unfuse — and the chain's shape and mode are read
    off them, never stored beside them. Checkpoint manifests are keyed by
    the member names in both shapes, so recovery stays portable across any
    adaptation history.
    """

    name: str
    members: tuple[str, ...]
    nodes: list[Node]
    boundary: Stream
    # previous-tick busy total, for the delta the signals are taken over
    prev_busy_s: float = 0.0

    @property
    def node_ids(self) -> set[int]:
        return {id(n) for n in self.nodes}

    @property
    def fused(self) -> bool:
        return isinstance(self.nodes[0].operator, FusedOperator)

    @property
    def mode(self) -> str:
        """``"unfused"``, or the live fused operator's execution mode."""
        return self.nodes[0].operator.execution_mode if self.fused else "unfused"


def discover_chains(
    nodes: list[Node], exclude_ids: set[int] | None = None
) -> list[AdaptiveChain]:
    """Find every runtime-adaptable fused chain in a compiled node list.

    A chain is adaptable when it is a fused single-input operator node
    outside every keyed replica group (``exclude_ids``: the groups' node
    ids — their clone chains rescale as a unit and are rebuilt from the
    group recipe, never adapted individually).
    """
    exclude = exclude_ids or set()
    chains: list[AdaptiveChain] = []
    for node in nodes:
        if id(node) in exclude or node.kind != "operator":
            continue
        op = node.operator
        if not isinstance(op, FusedOperator) or len(node.inputs) != 1:
            continue
        if any("::" in part for part in op.part_names()):
            # replica clone chain that escaped exclusion — never adapt
            continue
        chains.append(
            AdaptiveChain(
                name=node.name,
                members=tuple(op.part_names()),
                nodes=[node],
                boundary=node.inputs[0],
            )
        )
    return chains


class CostModelPolicy:
    """The elastic controller's policy: one ``decide(view)`` per tick.

    Replica counts come from the hysteresis rule and chain decisions from
    the cost model, both described in the module docstring; every rule
    must hold for a streak of ticks, so one noisy tick never rescales a
    group or rewrites the plan.
    """

    def __init__(self, replan: ReplanConfig | None = None) -> None:
        self._cfg = replan if replan is not None else ReplanConfig()
        self._streaks: dict[tuple[str, str], int] = {}

    def decide(self, view: WorkloadView) -> list[AdaptationAction]:
        actions: list[AdaptationAction] = []
        for name, signals in view.groups.items():
            target = self._rescale_target(name, signals)
            if target != signals.parallelism:
                actions.append(Rescale(group=name, target=target))
        for name, chain in view.chains.items():
            action = self._chain_action(chain)
            if action is not None:
                actions.append(action)
        return actions

    def _streak(self, name: str, rule: str, active: bool, bar: int) -> bool:
        """Advance the (name, rule) streak; True once it reaches ``bar``.

        Each target's two rules are mutually exclusive (up needs an
        overloaded group, down an idle one; unfuse needs a fused chain,
        fuse an unfused one), and an inactive rule drops its streak, so a
        target never carries more than one ripening streak.
        """
        key = (name, rule)
        if not active:
            self._streaks.pop(key, None)
            return False
        streak = self._streaks.get(key, 0) + 1
        if streak >= bar:
            self._streaks.pop(key, None)
            return True
        self._streaks[key] = streak
        return False

    def _rescale_target(self, group: str, signals: GroupSignals) -> int:
        current = signals.parallelism
        violated = signals.qos_violation_delta > 0
        overloaded = (
            signals.queue_fill >= UP_QUEUE_FILL
            or signals.busy_fraction >= UP_BUSY
            or violated
        )
        idle = (
            signals.queue_fill <= DOWN_QUEUE_FILL
            and signals.busy_fraction <= DOWN_BUSY
            and not violated
        )
        # both streaks advance every tick: a firing rule still clears the
        # other one's streak
        up = self._streak(group, "up", overloaded, 1 if violated else UP_TICKS)
        down = self._streak(group, "down", idle and current > 1, DOWN_TICKS)
        if up:
            return current * 2
        return current - 1 if down else current

    def _chain_action(self, chain: ChainSignals) -> AdaptationAction | None:
        cfg = self._cfg
        # Rule 1 — saturated fused chain: one thread is the bottleneck;
        # unfusing regains up to len(members)-way pipeline parallelism,
        # worth the extra queue hops while the chain is busy *and* backed
        # up (busy alone means the thread still keeps pace).
        saturated = (
            chain.fused
            and len(chain.members) >= 2
            and chain.queue_fill >= cfg.unfuse_queue_fill
            and chain.busy_fraction >= cfg.unfuse_busy
        )
        if self._streak(chain.name, "unfuse", saturated, cfg.streak_ticks):
            return Unfuse(chain=chain.name)
        # Rule 2 — idle unfused chain: the queue hops now dominate the
        # (absent) pipeline-parallelism gain; collapse back to one node.
        idle = (
            not chain.fused
            and chain.queue_fill <= cfg.refuse_queue_fill
            and chain.busy_fraction <= cfg.refuse_busy
        )
        if self._streak(chain.name, "fuse", idle, cfg.streak_ticks):
            return Fuse(chain=chain.name)
        return None


__all__ = [
    "AdaptiveChain",
    "CostModelPolicy",
    "ReplanConfig",
    "discover_chains",
]
