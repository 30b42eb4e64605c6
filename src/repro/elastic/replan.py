"""Runtime re-planning: the cost model and the adaptive-chain registry.

This module holds the pieces of PR "adaptive re-planning" that are pure
decision logic or bookkeeping — no drain/splice mechanics (those live in
:class:`~repro.elastic.controller.ElasticController`):

* :class:`ReplanConfig`    — validated knobs, resolved into
                             ``ElasticConfig.replan`` and round-tripped
                             through the ``[elastic.replan]`` TOML table;
* :class:`AdaptiveChain`   — one fused linear chain the controller may
                             rewrite at runtime, with its live nodes;
* :func:`discover_chains`  — find every adaptable chain in a compiled
                             plan (fused, single-input, outside every
                             keyed replica group);
* :class:`CostModelPolicy` — the default :class:`AdaptationPolicy`: the
                             classic hysteresis policy for replica
                             counts plus a chain cost model over the
                             observed busy/queue statistics;
* :func:`plan_migration`   — the placement rule the dist coordinator
                             applies to heartbeat load summaries.

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
from typing import Any, Mapping

from ..spe.plan import FusedOperator
from ..spe.query import Node
from ..spe.stream import Stream
from .actions import (
    AdaptationAction,
    ChainSignals,
    Fuse,
    Migrate,
    Rescale,
    Unfuse,
    WorkloadView,
)
from .policy import HysteresisPolicy, ScalePolicy


@dataclass(frozen=True)
class ReplanConfig:
    """Knobs for runtime plan adaptation (``ElasticConfig.replan``).

    ``cooldown_s`` is the minimum spacing between adaptations of one
    chain; ``max_actions_per_tick`` caps how many plan mutations one tick
    may apply (rescales are budgeted separately by the group cooldown).
    ``streak_ticks`` is the hysteresis: a threshold must hold for that
    many consecutive ticks before the matching action fires. The
    remaining thresholds parameterize the cost model — see the module
    docstring for how each one is read.
    """

    cooldown_s: float = 1.0
    max_actions_per_tick: int = 1
    streak_ticks: int = 2
    unfuse_queue_fill: float = 0.5
    unfuse_busy: float = 0.8
    refuse_queue_fill: float = 0.05
    refuse_busy: float = 0.2
    migrate: bool = False
    migrate_busy_ratio: float = 2.0

    def __post_init__(self) -> None:
        if self.cooldown_s < 0:
            raise ValueError("replan.cooldown_s must be non-negative")
        if self.max_actions_per_tick < 1:
            raise ValueError("replan.max_actions_per_tick must be >= 1")
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
        if self.migrate_busy_ratio < 1.0:
            raise ValueError("replan.migrate_busy_ratio must be >= 1.0")

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
        parts = [
            f"cooldown {self.cooldown_s}s",
            f"<= {self.max_actions_per_tick} action/tick",
        ]
        if self.migrate:
            parts.append("migration on")
        return ", ".join(parts)


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
    """Default :class:`~repro.elastic.actions.AdaptationPolicy`.

    Replica-count decisions delegate to a classic
    :class:`~repro.elastic.policy.ScalePolicy` (hysteresis by default);
    chain decisions come from the cost model described in the module
    docstring, with the same streak-based hysteresis the scale policy
    uses so one noisy tick never rewrites the plan.
    """

    def __init__(
        self,
        replan: ReplanConfig | None = None,
        scale: ScalePolicy | None = None,
    ) -> None:
        self._cfg = replan if replan is not None else ReplanConfig()
        self._scale = scale if scale is not None else HysteresisPolicy()
        self._streaks: dict[tuple[str, str], int] = {}

    def decide(self, view: WorkloadView) -> list[AdaptationAction]:
        actions: list[AdaptationAction] = []
        for name, signals in view.groups.items():
            target = self._scale.decide(name, signals, signals.parallelism)
            if target != signals.parallelism:
                actions.append(Rescale(group=name, target=target))
        for name, chain in view.chains.items():
            action = self._chain_action(chain)
            if action is not None:
                actions.append(action)
        if self._cfg.migrate and view.workers:
            migration = plan_migration(view.workers, self._cfg)
            if migration is not None:
                actions.append(migration)
        return actions

    def _streak(self, chain: str, rule: str, active: bool) -> bool:
        """Advance the (chain, rule) streak; True once it reaches the bar.

        The two rules are mutually exclusive (one needs a fused chain, the
        other an unfused one), and an inactive rule drops its streak, so
        a chain never carries more than one ripening streak.
        """
        key = (chain, rule)
        if not active:
            self._streaks.pop(key, None)
            return False
        streak = self._streaks.get(key, 0) + 1
        if streak >= self._cfg.streak_ticks:
            self._streaks.pop(key, None)
            return True
        self._streaks[key] = streak
        return False

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
        if self._streak(chain.name, "unfuse", saturated):
            return Unfuse(chain=chain.name)
        # Rule 2 — idle unfused chain: the queue hops now dominate the
        # (absent) pipeline-parallelism gain; collapse back to one node.
        idle = (
            not chain.fused
            and chain.queue_fill <= cfg.refuse_queue_fill
            and chain.busy_fraction <= cfg.refuse_busy
        )
        if self._streak(chain.name, "fuse", idle):
            return Fuse(chain=chain.name)
        return None


def plan_migration(
    workers: Mapping[str, Mapping[str, Any]], cfg: ReplanConfig
) -> Migrate | None:
    """Pick one stage to move off the busiest dist worker, or ``None``.

    ``workers`` maps worker name to a load summary with ``busy_fraction``
    and ``stages`` (the stage names it currently runs). The rule fires
    only when the busiest worker runs more than one stage (moving its
    only stage just relocates the hot spot) and is at least
    ``migrate_busy_ratio`` times as busy as the idlest one.
    """
    loads = {
        name: float(info.get("busy_fraction", 0.0)) for name, info in workers.items()
    }
    if len(loads) < 2:
        return None
    hot = max(loads, key=lambda n: loads[n])
    cold = min(loads, key=lambda n: loads[n])
    if hot == cold:
        return None
    hot_stages = list(workers[hot].get("stages", ()))
    if len(hot_stages) < 2:
        return None
    if loads[hot] < max(loads[cold], 1e-9) * cfg.migrate_busy_ratio:
        return None
    # move the hot worker's last stage: downstream stages are the ones a
    # backlogged pipeline starves, and the choice is deterministic
    return Migrate(stage=hot_stages[-1], to_worker=cold)


__all__ = [
    "AdaptiveChain",
    "CostModelPolicy",
    "ReplanConfig",
    "discover_chains",
    "plan_migration",
]
