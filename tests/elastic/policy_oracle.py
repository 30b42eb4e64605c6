"""Test-only oracle: the elastic decision logic as it shipped while replica
counts came from a separate hysteresis scale policy.

Kept verbatim: ``HysteresisPolicy`` decides one group's replica target
from two streak dicts of its own, and ``CostModelPolicy`` asks it for every
group before applying the chain cost model. ``CostModelPolicy(replan)``
here is the old default composition; the property suite demands the same
action lists, in the same order, from ``repro.elastic.CostModelPolicy``.
"""

from __future__ import annotations

from repro.elastic import (
    AdaptationAction,
    ChainSignals,
    Fuse,
    GroupSignals,
    ReplanConfig,
    Rescale,
    Unfuse,
    WorkloadView,
)


class HysteresisPolicy:
    """Threshold policy with streak-based hysteresis.

    Scale-up is eager (doubling) and triggers after ``up_ticks``
    consecutive overloaded ticks — or immediately on a QoS violation when
    ``qos_boost`` is set, because a missed recoat-gap deadline means the
    build is already printing over unassessed layers. Scale-down is
    conservative (one replica at a time) and needs ``down_ticks``
    consecutive idle ticks, so transient lulls between layer bursts do not
    thrash the group.
    """

    def __init__(
        self,
        up_queue_fill: float = 0.5,
        up_busy: float = 0.85,
        down_queue_fill: float = 0.10,
        down_busy: float = 0.35,
        up_ticks: int = 2,
        down_ticks: int = 6,
        qos_boost: bool = True,
    ) -> None:
        self.up_queue_fill = up_queue_fill
        self.up_busy = up_busy
        self.down_queue_fill = down_queue_fill
        self.down_busy = down_busy
        self.up_ticks = max(1, up_ticks)
        self.down_ticks = max(1, down_ticks)
        self.qos_boost = qos_boost
        self._up_streak: dict[str, int] = {}
        self._down_streak: dict[str, int] = {}

    def decide(self, group: str, signals: GroupSignals, current: int) -> int:
        overloaded = (
            signals.queue_fill >= self.up_queue_fill
            or signals.busy_fraction >= self.up_busy
            or signals.qos_violation_delta > 0
        )
        idle = (
            signals.queue_fill <= self.down_queue_fill
            and signals.busy_fraction <= self.down_busy
            and signals.qos_violation_delta == 0
        )
        if overloaded:
            self._down_streak[group] = 0
            streak = self._up_streak.get(group, 0) + 1
            self._up_streak[group] = streak
            if self.qos_boost and signals.qos_violation_delta > 0:
                self._up_streak[group] = 0
                return current * 2
            if streak >= self.up_ticks:
                self._up_streak[group] = 0
                return current * 2
            return current
        self._up_streak[group] = 0
        if idle and current > 1:
            streak = self._down_streak.get(group, 0) + 1
            self._down_streak[group] = streak
            if streak >= self.down_ticks:
                self._down_streak[group] = 0
                return current - 1
            return current
        self._down_streak[group] = 0
        return current


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
        scale: HysteresisPolicy | None = None,
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
