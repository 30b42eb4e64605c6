"""The elastic controller: QoS-driven runtime adaptation of a live plan.

The controller watches the same signals an operator reads off the
``strata-repro top`` table — boundary-queue fill, per-replica busy
fraction, watermark lag, QoS watchdog violations — assembles them into
one :class:`~repro.elastic.actions.WorkloadView` per tick, and asks its
:class:`~repro.elastic.actions.AdaptationPolicy` for a sequence of typed
actions. It can apply three plan mutations *while the query runs*:

* **Rescale** a keyed-replicated group to a new replica count (the
  original elastic capability);
* **Unfuse** a fused linear chain into per-operator nodes, regaining
  pipeline parallelism when one thread becomes the bottleneck;
* **Fuse** an idle unfused chain back into a single node.

**Migrate** is delegated to the distributed coordinator via a placement
hook (moving a stage between forked workers is a process operation, not
a thread-level splice). Whether a fused chain's rows run scalar or
columnar is not a plan mutation at all: the vectorized operator picks
per run (:mod:`repro.spe.plan`).

Every mutation is one call of :meth:`ElasticController._mutate`, which
owns the drain/splice protocol; an action only supplies its rebuild
step:

1. **drain** — inject a :class:`~repro.spe.barrier.RescaleBarrier` scoped
   to the target nodes into their boundary stream; it aligns like a
   checkpoint barrier, so when the absorb node consumes it every
   in-flight tuple ahead of it has been fully processed;
2. **retire** — each scope node retires at alignment (rescale targets
   also snapshot their drained state into the barrier for re-sharding);
3. **rebuild** — replacement nodes are built: a replica group from its
   :class:`~repro.spe.plan.ReplicaGroupMeta` recipe with re-sharded
   state, a chain by re-wrapping the *same drained operator instances*
   in the new shape (state never leaves the process, so divergence
   stays 0 by construction);
4. **splice** — the checkpoint coordinator and observability context are
   re-bound, then the new nodes are handed to the live
   :class:`~repro.spe.scheduler.ThreadedScheduler`.

Between mutations the controller optionally retunes edge batching on
group executors. Every decision is recorded as a structured event and
exported through the metrics registry (``elastic_*`` /
``elastic_replan_*`` series).
"""

from __future__ import annotations

import itertools
import logging
import math
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from ..spe.barrier import RESCALE_EPOCH_BASE, RescaleBarrier
from ..spe.errors import PlanError, SPEError
from ..spe.operators.router import hash_route
from ..spe.plan import (
    PlanConfig,
    ReplicaGroupMeta,
    build_fused_node,
    build_replicated_group,
    fuse_linear_chains,
)
from ..spe.query import Node
from ..spe.scheduler import NodeExecutor, ThreadedScheduler
from ..spe.stream import Stream
from .actions import (
    AdaptationAction,
    AdaptationPolicy,
    ChainSignals,
    Fuse,
    Migrate,
    NoOp,
    Rescale,
    Unfuse,
    WorkloadView,
)
from .config import ElasticConfig
from .policy import GroupSignals
from .replan import AdaptiveChain, CostModelPolicy, discover_chains

logger = logging.getLogger("repro.elastic")


class ElasticError(SPEError):
    """Raised when the elastic runtime cannot operate on a deployment."""


@dataclass
class ElasticGroup:
    """One rescalable keyed-replicated operator group, live.

    ``nodes`` runs router first, merge last, clone chains between; the
    replica count is read off the live router, never stored beside it.
    """

    name: str
    meta: ReplicaGroupMeta
    nodes: list[Node]
    boundary: Stream
    batch_size: int = 1
    # previous-tick busy total, for the delta the signals are taken over
    prev_busy_s: float = 0.0

    @property
    def node_ids(self) -> set[int]:
        return {id(n) for n in self.nodes}

    @property
    def parallelism(self) -> int:
        return self.nodes[0].router.num_shards


def discover_groups(nodes: list[Node]) -> list[ElasticGroup]:
    """Find every rescalable replica group in a compiled node list.

    A group is announced by its router node's ``rescale_meta`` recipe; the
    member set is recovered by walking the streams from the router to the
    group's merge node (clone chains may be fused, so names are not enough).
    """
    consumer_of = {id(s): n for n in nodes for s in n.inputs}
    by_name = {n.name: n for n in nodes}
    groups: list[ElasticGroup] = []
    for node in nodes:
        meta = getattr(node, "rescale_meta", None)
        if meta is None:
            continue
        merge = by_name.get(meta.merge_name)
        if merge is None or not node.inputs:
            continue
        members: list[Node] = [node]
        seen = {id(node), id(merge)}
        frontier = [consumer_of.get(id(s)) for s in node.outputs]
        while frontier:
            nxt = frontier.pop()
            if nxt is None or id(nxt) in seen:
                continue
            seen.add(id(nxt))
            members.append(nxt)
            frontier.extend(consumer_of.get(id(s)) for s in nxt.outputs)
        members.append(merge)
        groups.append(
            ElasticGroup(
                name=meta.members[0],
                meta=meta,
                nodes=members,
                boundary=node.inputs[0],
            )
        )
    return groups


class ElasticController:
    """Adapts a live threaded deployment: replica counts and plan shape."""

    def __init__(
        self,
        scheduler: ThreadedScheduler,
        nodes: list[Node],
        config: ElasticConfig,
        plan: PlanConfig | None = None,
        obs: Any | None = None,
        checkpointer: Any | None = None,
    ) -> None:
        self._scheduler = scheduler
        self._nodes = nodes  # the engine's live list; spliced in place
        self._config = config
        self._plan = plan
        self._obs = obs
        self._checkpointer = checkpointer
        self._replan = config.replan  # ReplanConfig | None (pre-resolved)
        # None picks the cost model for either deployment shape: with
        # replanning off no chains are discovered, so all it ever sees are
        # replica groups and it decides exactly what its hysteresis scale
        # policy decides
        self._policy: AdaptationPolicy = (
            config.policy if config.policy is not None
            else CostModelPolicy(self._replan)
        )
        # live clamp for policy targets; starts at the config bounds but can
        # be moved at runtime (set_bounds) by an external budget owner —
        # this is how the fleet scheduler lends and reclaims replicas
        self._min_parallelism = config.min_parallelism
        self._max_parallelism = config.max_parallelism
        self.groups = discover_groups(nodes)
        group_node_ids = {id(n) for g in self.groups for n in g.nodes}
        self.chains: list[AdaptiveChain] = (
            discover_chains(nodes, group_node_ids)
            if self._replan is not None
            else []
        )
        if not self.groups and not self.chains:
            raise PlanError(
                "elastic deployment found no keyed-replicated operator group "
                "to rescale (and, with replan enabled, no adaptable fused "
                "chain); mark at least one keyed stage replicable (or "
                "declare parallelism) before enabling ElasticConfig"
            )
        base_batch = plan.edge_batch_size if plan is not None else 1
        for group in self.groups:
            group.batch_size = base_batch
        self.events: deque[dict[str, Any]] = deque(maxlen=256)
        self._rescales_up = 0
        self._rescales_down = 0
        self._last_rescale_s = 0.0
        self._action_counts: dict[str, int] = {}
        self._last_action_s = 0.0
        self._epoch_counter = itertools.count()
        # target name -> (kind, monotonic time) of its newest mutation;
        # cooldowns count from controller start until a target has one
        self._adapted: dict[str, tuple[str, float]] = {}
        self._started = time.monotonic()
        self._prev_qos_violations = 0
        self._last_migration = 0.0
        # distributed placement hooks, wired by the coordinator: a loads
        # snapshot feeding WorkloadView.workers and a migrator callable
        # that actually moves a stage between forked workers
        self._worker_loads: Callable[[], dict[str, dict[str, Any]]] | None = None
        self._migrator: Callable[[str, str], bool] | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        if obs is not None and hasattr(obs, "registry"):
            obs.registry.register_collector("elastic", self._collect_metrics)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            raise ElasticError("elastic controller already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="elastic-controller", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 30.0) -> None:
        """Stop the control loop; waits for an in-flight mutation to finish."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    @property
    def bounds(self) -> tuple[int, int]:
        """The live (min, max) parallelism clamp applied to policy targets."""
        with self._lock:
            return (self._min_parallelism, self._max_parallelism)

    def set_bounds(self, min_parallelism: int, max_parallelism: int) -> None:
        """Move the parallelism clamp at runtime (fleet bound lending).

        The policy keeps making its own QoS-driven decisions; this only
        changes the range those decisions are clamped into. A shrink does
        not force an immediate rescale — the controller drains down on
        its own tick cadence, which is what keeps lending cheap (no
        barrier unless the clamp actually binds). A decision already in
        flight is re-clamped against the *live* bounds both when the
        rescale starts and again after the drain, so a concurrent shrink
        can never leave the group above the lent maximum.
        """
        min_parallelism = int(min_parallelism)
        max_parallelism = int(max_parallelism)
        if min_parallelism < 1:
            raise ElasticError("min_parallelism must be >= 1")
        if max_parallelism < min_parallelism:
            raise ElasticError(
                f"max_parallelism ({max_parallelism}) must be >= "
                f"min_parallelism ({min_parallelism})"
            )
        with self._lock:
            if (min_parallelism, max_parallelism) == (
                self._min_parallelism, self._max_parallelism
            ):
                return
            self._min_parallelism = min_parallelism
            self._max_parallelism = max_parallelism
        self.events.append(
            {
                "kind": "bounds",
                "min_parallelism": min_parallelism,
                "max_parallelism": max_parallelism,
                "wall_time": time.time(),
            }
        )

    def set_placement_hooks(
        self,
        worker_loads: Callable[[], dict[str, dict[str, Any]]] | None = None,
        migrator: Callable[[str, str], bool] | None = None,
    ) -> None:
        """Wire the distributed coordinator's placement surface.

        ``worker_loads`` feeds ``WorkloadView.workers`` each tick;
        ``migrator(stage, to_worker)`` performs a :class:`Migrate` action
        and returns whether the stage actually moved.
        """
        self._worker_loads = worker_loads
        self._migrator = migrator

    def summary(self) -> dict[str, Any]:
        """Decision history and final shape, for run reports and the CLI."""
        return {
            "groups": {g.name: g.parallelism for g in self.groups},
            "chains": {
                c.name: {
                    "mode": c.mode,
                    "fused": c.fused,
                    "last_action": self._adapted.get(c.name, ("", 0.0))[0],
                }
                for c in self.chains
            },
            "rescales_up": self._rescales_up,
            "rescales_down": self._rescales_down,
            "last_rescale_seconds": self._last_rescale_s,
            "actions": dict(self._action_counts),
            "events": list(self.events),
        }

    # -- control loop -------------------------------------------------------

    def _run(self) -> None:
        while not self._stop.wait(self._config.tick_s):
            if self._scheduler.stopping or not self._scheduler.alive():
                return
            try:
                self.tick()
            except Exception:  # pragma: no cover - defensive: keep monitoring
                logger.exception("elastic tick failed")

    def workload_view(
        self, executors: list[NodeExecutor] | None = None
    ) -> WorkloadView:
        """One decision round's signals (public for tests and policies)."""
        if executors is None:
            executors = self._scheduler.executors
        qos_delta = self._qos_violation_delta()
        groups = {
            g.name: self._signals(g, executors, qos_delta) for g in self.groups
        }
        chains = {
            c.name: self._chain_signals(c, executors) for c in self.chains
        }
        workers: dict[str, dict[str, Any]] = {}
        if self._worker_loads is not None:
            try:
                workers = dict(self._worker_loads())
            except Exception:  # pragma: no cover - heartbeat races
                logger.exception("worker load snapshot failed")
        return WorkloadView(
            groups=groups,
            chains=chains,
            workers=workers,
            bounds=self.bounds,
            tick_s=self._config.tick_s,
        )

    def tick(self) -> None:
        """One sampling + decision round (public for deterministic tests)."""
        executors = self._scheduler.executors
        view = self.workload_view(executors)
        actions = list(self._policy.decide(view) or ())
        rescaled: set[str] = set()
        budget = (
            self._replan.max_actions_per_tick if self._replan is not None else 0
        )
        now = time.monotonic()
        for action in actions:
            if isinstance(action, NoOp):
                continue
            if isinstance(action, Rescale):
                group = self._group_named(action.group)
                if group is None:
                    continue
                target = self._clamp(action.target)
                if target != group.parallelism and self._cooled(
                    group.name, now, self._config.cooldown_s
                ):
                    if self.rescale(
                        group, target, signals=view.groups.get(group.name)
                    ):
                        rescaled.add(group.name)
                continue
            if self._replan is None or budget <= 0:
                continue
            if isinstance(action, Migrate):
                if now - self._last_migration >= self._replan.cooldown_s:
                    if self.apply_action(action):
                        budget -= 1
                continue
            chain = self._chain_named(getattr(action, "chain", ""))
            if chain is None:
                continue
            if not self._cooled(chain.name, now, self._replan.cooldown_s):
                continue
            if self.apply_action(action):
                budget -= 1
        # Bounds are authoritative even when the policy sees no load: a
        # group left outside the live clamp (fleet lending moved it) is
        # pulled back in on the normal cooldown cadence.
        for group in self.groups:
            if group.name in rescaled:
                continue
            clamped = self._clamp(group.parallelism)
            if clamped != group.parallelism and self._cooled(
                group.name, now, self._config.cooldown_s
            ):
                if self.rescale(group, clamped, signals=view.groups.get(group.name)):
                    rescaled.add(group.name)
        if self._config.adaptive_batching:
            for group in self.groups:
                if group.name not in rescaled and group.name in view.groups:
                    self._adapt_batching(group, view.groups[group.name], executors)

    def _clamp(self, target: int) -> int:
        """``target`` moved inside the live parallelism bounds."""
        low, high = self.bounds
        return max(low, min(high, target))

    def _cooled(self, name: str, now: float, cooldown_s: float) -> bool:
        """True once ``cooldown_s`` passed since the target last mutated."""
        return now - self._adapted.get(name, ("", self._started))[1] >= cooldown_s

    def _group_named(self, name: str) -> ElasticGroup | None:
        for group in self.groups:
            if group.name == name:
                return group
        return None

    def _chain_named(self, name: str) -> AdaptiveChain | None:
        for chain in self.chains:
            if chain.name == name:
                return chain
        return None

    def _qos_violation_delta(self) -> int:
        watchdog = getattr(self._obs, "watchdog", None)
        if watchdog is None:
            return 0
        total = watchdog.violations
        delta = total - self._prev_qos_violations
        self._prev_qos_violations = total
        return max(0, delta)

    def _live_executors(
        self, target: ElasticGroup | AdaptiveChain, executors: list[NodeExecutor]
    ) -> list[NodeExecutor]:
        ids = target.node_ids
        return [ex for ex in executors if id(ex.node) in ids and not ex.retired]

    def _load(
        self,
        target: ElasticGroup | AdaptiveChain,
        executors: list[NodeExecutor],
        threads: int,
    ) -> tuple[float, float]:
        """(boundary queue fill, mean busy fraction per thread this tick)."""
        fill = len(target.boundary) / max(1, target.boundary.capacity)
        busy_total = sum(
            ex.stats.processing_seconds
            for ex in self._live_executors(target, executors)
        )
        busy_delta = max(0.0, busy_total - target.prev_busy_s)
        target.prev_busy_s = busy_total
        return fill, busy_delta / (self._config.tick_s * max(1, threads))

    def _signals(
        self,
        group: ElasticGroup,
        executors: list[NodeExecutor],
        qos_delta: int,
    ) -> GroupSignals:
        fill, busy_fraction = self._load(group, executors, group.parallelism)
        source_taus = [
            ex.stats.last_tau
            for ex in executors
            if ex.node.kind == "source" and not math.isnan(ex.stats.last_tau)
        ]
        sink_taus = [
            ex.stats.last_tau
            for ex in executors
            if ex.node.kind == "sink" and not math.isnan(ex.stats.last_tau)
        ]
        lag = 0.0
        if source_taus and sink_taus:
            lag = max(0.0, max(source_taus) - min(sink_taus))
        return GroupSignals(
            queue_fill=fill,
            busy_fraction=busy_fraction,
            watermark_lag_s=lag,
            qos_violation_delta=qos_delta,
            parallelism=group.parallelism,
        )

    def _chain_signals(
        self, chain: AdaptiveChain, executors: list[NodeExecutor]
    ) -> ChainSignals:
        fill, busy_fraction = self._load(chain, executors, len(chain.nodes))
        return ChainSignals(
            name=chain.name,
            mode=chain.mode,
            members=chain.members,
            fused=chain.fused,
            queue_fill=fill,
            busy_fraction=busy_fraction,
        )

    # -- adaptive batching --------------------------------------------------

    def _adapt_batching(
        self,
        group: ElasticGroup,
        signals: GroupSignals,
        executors: list[NodeExecutor],
    ) -> None:
        """Multiplicative-increase / multiplicative-decrease batch tuning.

        Backlog on the boundary means queue synchronization is worth
        amortizing harder; an idle group pays batch linger for nothing.
        """
        current = group.batch_size
        if signals.queue_fill >= 0.5:
            target = min(self._config.batch_max, max(2, current * 2))
        elif signals.queue_fill <= 0.05 and signals.busy_fraction <= 0.2:
            target = max(self._config.batch_min, current // 2)
        else:
            return
        if target == current:
            return
        group.batch_size = target
        for ex in self._live_executors(group, executors):
            if ex.node.kind != "source":
                ex.set_batching(target)
        self._record_event(
            "batch", group, {"batch_size": target, "queue_fill": signals.queue_fill}
        )

    # -- action engine ------------------------------------------------------

    def apply_action(self, action: AdaptationAction) -> bool:
        """Apply one typed action to the running plan (public for tests).

        Returns True when the plan actually changed. Cooldowns and bounds
        policy live in :meth:`tick`; direct callers get the raw mutation
        (targets are still clamped to the live bounds — see
        :meth:`rescale`).
        """
        if isinstance(action, NoOp):
            return False
        if isinstance(action, Rescale):
            group = self._group_named(action.group)
            if group is None:
                return False
            return self.rescale(group, action.target)
        if isinstance(action, Migrate):
            return self._migrate(action)
        chain = self._chain_named(getattr(action, "chain", ""))
        if chain is None:
            return False
        if isinstance(action, Unfuse):
            return self._unfuse_chain(chain)
        if isinstance(action, Fuse):
            return self._fuse_chain(chain)
        return False

    def _migrate(self, action: Migrate) -> bool:
        """Delegate a Migrate action to the coordinator's placement hook."""
        if self._migrator is None:
            self.events.append(
                {
                    "kind": "migrate_skipped",
                    "stage": action.stage,
                    "to_worker": action.to_worker,
                    "reason": "no distributed coordinator attached",
                    "wall_time": time.time(),
                }
            )
            return False
        started = time.monotonic()
        moved = bool(self._migrator(action.stage, action.to_worker))
        if moved:
            self._last_migration = time.monotonic()
            with self._lock:
                self._count_action("migrate", time.monotonic() - started)
            self.events.append(
                {
                    "kind": "migrate",
                    "stage": action.stage,
                    "to_worker": action.to_worker,
                    "duration_s": round(time.monotonic() - started, 6),
                    "wall_time": time.time(),
                }
            )
        return moved

    def _count_action(self, kind: str, duration_s: float) -> None:
        """Update action counters (caller holds ``self._lock``)."""
        self._action_counts[kind] = self._action_counts.get(kind, 0) + 1
        self._last_action_s = duration_s

    # -- the mutation protocol ----------------------------------------------

    def _mutate(
        self,
        kind: str,
        target: ElasticGroup | AdaptiveChain,
        scope: frozenset[str],
        absorb_at: str,
        rebuild: Callable[[RescaleBarrier], tuple[list[Node], dict[str, Any]]],
    ) -> bool:
        """Drain ``target``, rebuild it, splice the replacement in.

        The one copy of the protocol every plan mutation runs. One barrier
        copy per boundary producer is injected at the target's boundary
        (so the head node's alignment count matches the stream's producer
        arithmetic); every ``scope`` node retires at alignment and the
        ``absorb_at`` node — the target's last live node — absorbs the
        barrier, which is the fully-drained signal. Edges inside the scope
        drain by FIFO order: the barrier only reaches node *i+1* after
        node *i* forwarded everything ahead of it.

        ``rebuild(barrier)`` then returns the replacement nodes and the
        detail to record with the event; it runs only once the target is
        retired, so it must always produce a working replacement.

        Returns False when the drain was abandoned because end-of-stream
        beat the barrier to the target or the scheduler began shutting
        down; nothing has been changed then. There is no timeout-abort:
        once the head consumed the barrier the target is retiring, and
        walking away would leave the dataflow headless.
        """
        started = time.monotonic()
        ids = target.node_ids
        retiring = [ex for ex in self._scheduler.executors if id(ex.node) in ids]
        epoch = RESCALE_EPOCH_BASE + next(self._epoch_counter)
        barrier = RescaleBarrier(epoch, scope, absorb_at=absorb_at)
        boundary = target.boundary
        for _ in range(boundary.num_producers):
            while not boundary.put(barrier, timeout=0.2):
                if self._drain_aborted(retiring):
                    self._record_event("abort", target, {"phase": "inject"})
                    return False
        while not barrier.wait_absorbed(timeout=0.2):
            if self._drain_aborted(retiring):
                self._record_event("abort", target, {"phase": "drain"})
                return False
        new_nodes, detail = rebuild(barrier)
        with self._lock:
            self._splice_node_list(target.nodes, new_nodes)
            if self._checkpointer is not None and hasattr(self._checkpointer, "rebind"):
                # Before the scheduler sees the new nodes: in-flight epochs
                # must expect acks from the replacements, not the retired
                # ones, or those epochs never commit. (Chain manifests are
                # keyed by member names in every shape, so for a chain only
                # the node objects change, not the expected names.)
                self._checkpointer.rebind(self._nodes)
            if self._obs is not None and hasattr(self._obs, "rebind"):
                self._obs.rebind(self._nodes, retired=retiring)
            self._scheduler.splice(new_nodes)
            target.nodes = new_nodes
            target.prev_busy_s = 0.0
            now = time.monotonic()
            self._adapted[target.name] = (kind, now)
            self._count_action(kind, now - started)
        self._record_event(
            kind, target,
            {**detail, "epoch": epoch, "duration_s": round(now - started, 6)},
        )
        logger.info("%s %s in %.3fs: %s", kind, target.name, now - started, detail)
        return True

    def _drain_aborted(self, retiring: list[NodeExecutor]) -> bool:
        """True when the drain can never complete (EOS won, or shutdown)."""
        if self._scheduler.stopping or not self._scheduler.alive():
            return True
        return any(ex.finalized for ex in retiring)

    def _splice_node_list(self, old: list[Node], new: list[Node]) -> None:
        ids = {id(n) for n in old}
        positions = [i for i, n in enumerate(self._nodes) if id(n) in ids]
        insert_at = positions[0] if positions else len(self._nodes)
        kept_before = [
            n for n in self._nodes[:insert_at] if id(n) not in ids
        ]
        kept_after = [
            n for n in self._nodes[insert_at:] if id(n) not in ids
        ]
        self._nodes[:] = kept_before + new + kept_after

    # -- the rebuild steps --------------------------------------------------

    def _unfuse_chain(self, chain: AdaptiveChain) -> bool:
        """Break a fused chain into one node (and thread) per constituent."""
        if not chain.fused:
            return False
        node = chain.nodes[0]

        def rebuild(_barrier: RescaleBarrier) -> tuple[list[Node], dict[str, Any]]:
            # The *live* drained operator instances move into the new
            # shape: state never leaves the process, so nothing is lost
            # or duplicated.
            new_nodes: list[Node] = []
            for part in node.operator.parts:
                fresh = Node(
                    part.name, "operator", operator=part.operator,
                    base_name=part.base_name,
                )
                if new_nodes:
                    prev = new_nodes[-1]
                    stream = Stream(
                        f"{prev.name}->{part.name}", chain.boundary.capacity
                    )
                    prev.outputs.append(stream)
                    fresh.inputs.append(stream)
                else:
                    fresh.inputs = list(node.inputs)
                new_nodes.append(fresh)
            new_nodes[-1].outputs = list(node.outputs)
            new_nodes[-1].router = node.router
            return new_nodes, {"members": list(chain.members)}

        return self._mutate(
            "unfuse", chain, frozenset({node.name}), node.name, rebuild
        )

    def _fuse_chain(self, chain: AdaptiveChain) -> bool:
        """Collapse a previously unfused chain back into one fused node."""
        if chain.fused:
            return False
        nodes = chain.nodes

        def rebuild(_barrier: RescaleBarrier) -> tuple[list[Node], dict[str, Any]]:
            fused = build_fused_node(chain.name, nodes)
            fused.mode_reason = "replan: re-fused at runtime"
            return [fused], {"mode": fused.operator.execution_mode}

        return self._mutate(
            "fuse", chain, frozenset(n.name for n in nodes), nodes[-1].name, rebuild
        )

    def rescale(
        self,
        group: ElasticGroup,
        target: int,
        signals: GroupSignals | None = None,
    ) -> bool:
        """Drain, re-shard, and resplice ``group`` at ``target`` replicas.

        ``target`` is clamped to the live bounds at entry *and* re-read
        after the drain, so a concurrent :meth:`set_bounds` shrink can
        never leave the group above the lent maximum. Returns False when
        the rescale was abandoned (see :meth:`_mutate`) or clamping made
        it a no-op.
        """
        if target < 1:
            raise ElasticError("target parallelism must be >= 1")
        target = self._clamp(target)
        old_n = group.parallelism
        if target == old_n:
            return False

        def rebuild(barrier: RescaleBarrier) -> tuple[list[Node], dict[str, Any]]:
            # The drain may have raced a set_bounds shrink; the group is
            # already retired, so rebuild at the freshly clamped target
            # (old_n if the clamp collapsed the change — still a correct
            # rebuild).
            new_n = self._clamp(target)
            new_nodes, clone_ops = build_replicated_group(
                group.meta, new_n,
                inputs=[group.boundary], outputs=list(group.nodes[-1].outputs),
            )
            route = lambda key: hash_route(key, new_n)  # noqa: E731
            for j, member in enumerate(group.meta.members):
                states = [
                    barrier.snapshots.get(f"{member}::{i}") for i in range(old_n)
                ]
                prototype = group.meta.factories[j]()
                new_states = prototype.reshard_state(states, new_n, route)
                for i, state in enumerate(new_states):
                    if state is not None:
                        clone_ops[f"{member}::{i}"].restore_state(state)
            if self._plan is not None:
                new_nodes = fuse_linear_chains(new_nodes)
            return new_nodes, {
                "from": old_n,
                "to": new_n,
                "signals": None if signals is None else vars(signals),
            }

        if not self._mutate(
            "rescale", group, frozenset(n.name for n in group.nodes),
            group.meta.merge_name, rebuild,
        ):
            return False
        new_n = group.parallelism
        with self._lock:
            self._last_rescale_s = self._last_action_s
            if new_n > old_n:
                self._rescales_up += 1
            elif new_n < old_n:
                self._rescales_down += 1
        if self._config.adaptive_batching and group.batch_size > 1:
            for ex in self._live_executors(group, self._scheduler.executors):
                if ex.node.kind != "source":
                    ex.set_batching(group.batch_size)
        return new_n != old_n

    # -- observability ------------------------------------------------------

    def _record_event(
        self,
        kind: str,
        target: ElasticGroup | AdaptiveChain,
        detail: dict[str, Any],
    ) -> None:
        event: dict[str, Any] = {"kind": kind, "wall_time": time.time(), **detail}
        if isinstance(target, ElasticGroup):
            event["group"] = target.name
            event["parallelism"] = target.parallelism
        else:
            event["chain"] = target.name
        self.events.append(event)

    def _collect_metrics(self):
        from ..obs.registry import Sample

        samples: list[Sample] = []
        with self._lock:
            for group in self.groups:
                labels = (("group", group.name),)
                samples.append(
                    Sample("elastic_parallelism", labels, float(group.parallelism))
                )
                samples.append(
                    Sample("elastic_batch_size", labels, float(group.batch_size))
                )
            samples.append(
                Sample(
                    "elastic_rescales_total", (("direction", "up"),),
                    float(self._rescales_up), "counter",
                )
            )
            samples.append(
                Sample(
                    "elastic_rescales_total", (("direction", "down"),),
                    float(self._rescales_down), "counter",
                )
            )
            samples.append(
                Sample(
                    "elastic_last_rescale_seconds", (), float(self._last_rescale_s)
                )
            )
            for chain in self.chains:
                samples.append(
                    Sample(
                        "elastic_chain_mode",
                        (("chain", chain.name), ("mode", chain.mode)),
                        1.0,
                    )
                )
                if chain.name in self._adapted:
                    action, at = self._adapted[chain.name]
                    for node in chain.nodes:
                        samples.append(
                            Sample(
                                "elastic_last_adaptation",
                                (("operator", node.name), ("action", action)),
                                at,
                            )
                        )
            for kind, count in sorted(self._action_counts.items()):
                samples.append(
                    Sample(
                        "elastic_replan_actions_total",
                        (("action", kind),),
                        float(count),
                        "counter",
                    )
                )
            samples.append(
                Sample(
                    "elastic_replan_last_action_seconds",
                    (),
                    float(self._last_action_s),
                )
            )
        return samples


def elastic_supervisor(
    config: ElasticConfig | None,
    plan: PlanConfig | None,
    obs: Any | None = None,
    checkpointer: Any | None = None,
    placement: tuple[Callable, Callable] | None = None,
    required: bool = True,
) -> Callable[[ThreadedScheduler, list[Node]], ElasticController | None] | None:
    """The ``supervise`` hook of :func:`repro.spe.engine.launch` for
    ``config`` (None without one): it builds the graph's controller.

    A graph with nothing to rescale or re-plan raises :class:`PlanError`
    when the controller is ``required`` and runs unmanaged otherwise (most
    stages of a cut pipeline carry no replica group). ``placement`` is the
    coordinator's ``(worker_loads, migrator)`` pair, wired when the
    config's re-planning migrates stages.
    """
    if config is None:
        return None
    migrates = config.replan is not None and config.replan.migrate

    def supervise(
        scheduler: ThreadedScheduler, nodes: list[Node]
    ) -> ElasticController | None:
        try:
            controller = ElasticController(
                scheduler, nodes, config, plan=plan, obs=obs, checkpointer=checkpointer
            )
        except PlanError:
            if required:
                raise
            return None
        if placement is not None and migrates:
            controller.set_placement_hooks(*placement)
        return controller

    return supervise
