"""The elastic controller: QoS-driven runtime adaptation of a live plan.

The controller watches the same signals an operator reads off the
``strata-repro top`` table — boundary-queue fill, per-replica busy
fraction, watermark lag, QoS watchdog violations, columnar block fill —
assembles them into one :class:`~repro.elastic.actions.WorkloadView` per
tick, and asks its :class:`~repro.elastic.actions.AdaptationPolicy` for a
sequence of typed actions. It can apply four plan mutations *while the
query runs*:

* **Rescale** a keyed-replicated group to a new replica count (the
  original elastic capability);
* **Unfuse** a fused linear chain into per-operator nodes, regaining
  pipeline parallelism when one thread becomes the bottleneck;
* **Fuse** an idle unfused chain back into a single node;
* **SetChainMode** — flip a fused chain between scalar and vectorized
  (columnar) execution from observed block fill ratios;
* **Migrate** is delegated to the distributed coordinator via a
  placement hook (moving a stage between forked workers is a process
  operation, not a thread-level splice).

Every mutation reuses the same drain/splice protocol:

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
from dataclasses import dataclass, field
from typing import Any, Callable

from ..spe.barrier import RESCALE_EPOCH_BASE, RescaleBarrier
from ..spe.errors import PlanError, SPEError
from ..spe.operators.router import hash_route
from ..spe.plan import (
    FusedOperator,
    PlanConfig,
    ReplicaGroupMeta,
    VectorizedFusedOperator,
    _FusedPart,
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
    ScalePolicyAdapter,
    SetChainMode,
    Unfuse,
    WorkloadView,
    is_legacy_scale_policy,
)
from .config import ElasticConfig
from .policy import GroupSignals, HysteresisPolicy
from .replan import AdaptiveChain, CostModelPolicy, discover_chains

logger = logging.getLogger("repro.elastic")


class ElasticError(SPEError):
    """Raised when the elastic runtime cannot operate on a deployment."""


@dataclass
class ElasticGroup:
    """One rescalable keyed-replicated operator group, live."""

    name: str
    meta: ReplicaGroupMeta
    router_node: Node
    merge_node: Node
    nodes: list[Node]
    boundary: Stream
    parallelism: int
    batch_size: int = 1
    last_rescale: float = field(default_factory=time.monotonic)
    # signal bookkeeping (previous-tick totals for delta computation)
    prev_busy_s: float = 0.0

    @property
    def node_ids(self) -> set[int]:
        return {id(n) for n in self.nodes}


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
                router_node=node,
                merge_node=merge,
                nodes=members,
                boundary=node.inputs[0],
                parallelism=node.router.num_shards,
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
        self._policy = self._resolve_policy(config.policy)
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

    def _resolve_policy(self, policy: Any) -> AdaptationPolicy:
        """Normalize ``config.policy`` into an AdaptationPolicy.

        ``None`` picks the default for the deployment shape: the full
        cost model when replanning is on, otherwise the classic
        hysteresis policy behind a silent shim. A user-supplied legacy
        :class:`ScalePolicy` goes through the same shim but *with* the
        one-time :class:`DeprecationWarning`.
        """
        if policy is None:
            if self._replan is not None:
                return CostModelPolicy(self._replan)
            return ScalePolicyAdapter(HysteresisPolicy(), warn=False)
        if is_legacy_scale_policy(policy):
            return ScalePolicyAdapter(policy)
        return policy

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
                    "last_action": c.last_action,
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
        with self._lock:
            bounds = (self._min_parallelism, self._max_parallelism)
        return WorkloadView(
            groups=groups,
            chains=chains,
            workers=workers,
            bounds=bounds,
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
                with self._lock:
                    low, high = self._min_parallelism, self._max_parallelism
                target = max(low, min(high, action.target))
                if (
                    target != group.parallelism
                    and now - group.last_rescale >= self._config.cooldown_s
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
            if now - chain.last_adapt < self._replan.cooldown_s:
                continue
            if self.apply_action(action):
                budget -= 1
        # Bounds are authoritative even when the policy sees no load: a
        # group left outside the live clamp (fleet lending moved it) is
        # pulled back in on the normal cooldown cadence.
        with self._lock:
            low, high = self._min_parallelism, self._max_parallelism
        for group in self.groups:
            if group.name in rescaled:
                continue
            clamped = max(low, min(high, group.parallelism))
            if (
                clamped != group.parallelism
                and now - group.last_rescale >= self._config.cooldown_s
            ):
                if self.rescale(group, clamped, signals=view.groups.get(group.name)):
                    rescaled.add(group.name)
        if self._config.adaptive_batching:
            for group in self.groups:
                if group.name not in rescaled and group.name in view.groups:
                    self._adapt_batching(group, view.groups[group.name], executors)

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

    def _group_executors(
        self, group: ElasticGroup, executors: list[NodeExecutor]
    ) -> list[NodeExecutor]:
        ids = group.node_ids
        return [ex for ex in executors if id(ex.node) in ids and not ex.retired]

    def _signals(
        self,
        group: ElasticGroup,
        executors: list[NodeExecutor],
        qos_delta: int,
    ) -> GroupSignals:
        fill = len(group.boundary) / max(1, group.boundary.capacity)
        group_exec = self._group_executors(group, executors)
        busy_total = sum(ex.stats.processing_seconds for ex in group_exec)
        busy_delta = max(0.0, busy_total - group.prev_busy_s)
        group.prev_busy_s = busy_total
        busy_fraction = busy_delta / (self._config.tick_s * max(1, group.parallelism))
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
        ids = chain.node_ids
        chain_exec = [
            ex for ex in executors if id(ex.node) in ids and not ex.retired
        ]
        busy_total = sum(ex.stats.processing_seconds for ex in chain_exec)
        busy_delta = max(0.0, busy_total - chain.prev_busy_s)
        chain.prev_busy_s = busy_total
        busy_fraction = busy_delta / (
            self._config.tick_s * max(1, len(chain.nodes))
        )
        fill = len(chain.boundary) / max(1, chain.boundary.capacity)
        blocks_delta = 0
        block_fill = 0.0
        if chain.fused:
            op = chain.nodes[0].operator
            if isinstance(op, VectorizedFusedOperator):
                # rows at each block's widest point, not at its entry: one
                # layer row that fans out to thousands of cells is a full
                # block, however the layer arrived
                blocks_delta = max(0, op.blocks_in - chain.prev_blocks)
                rows_delta = max(0, op.block_rows_peak - chain.prev_block_rows)
                chain.prev_blocks = op.blocks_in
                chain.prev_block_rows = op.block_rows_peak
                if blocks_delta:
                    batch = (
                        self._plan.edge_batch_size if self._plan is not None else 1
                    )
                    block_fill = min(
                        1.0, rows_delta / blocks_delta / max(1, batch)
                    )
        return ChainSignals(
            name=chain.name,
            mode=chain.mode,
            members=chain.members,
            fused=chain.fused,
            queue_fill=fill,
            busy_fraction=busy_fraction,
            block_fill=block_fill,
            blocks_delta=blocks_delta,
            block_capable=chain.block_capable,
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
        for ex in self._group_executors(group, executors):
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
        if isinstance(action, SetChainMode):
            return self._set_chain_mode(chain, action.mode)
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

    # -- chain mutation protocol --------------------------------------------

    def _drain_chain(
        self,
        chain: AdaptiveChain,
        scope: frozenset[str],
        absorb_at: str,
        chain_exec: list[NodeExecutor],
    ) -> bool:
        """Scoped drain of a chain via the rescale-barrier protocol.

        One barrier copy per boundary producer is injected at the chain
        head; every scope node retires at alignment and the ``absorb_at``
        node (the chain's last live node) absorbs the barrier, which is
        the fully-drained signal. Intermediate edges of an unfused chain
        are drained by FIFO order: the barrier only reaches node *i+1*
        after node *i* forwarded everything ahead of it.
        """
        epoch = RESCALE_EPOCH_BASE + next(self._epoch_counter)
        barrier = RescaleBarrier(epoch, scope, absorb_at=absorb_at)
        boundary = chain.boundary
        for _ in range(boundary.num_producers):
            while not boundary.put(barrier, timeout=0.2):
                if self._drain_aborted(chain_exec):
                    self._record_chain_event(
                        "abort", chain, {"phase": "inject"}
                    )
                    return False
        while not barrier.wait_absorbed(timeout=0.2):
            if self._drain_aborted(chain_exec):
                self._record_chain_event("abort", chain, {"phase": "drain"})
                return False
        return True

    def _splice_chain(
        self,
        chain: AdaptiveChain,
        new_nodes: list[Node],
        retired_exec: list[NodeExecutor],
    ) -> None:
        """Swap a chain's nodes in the live dataflow (rescale ordering)."""
        with self._lock:
            self._splice_node_list(chain.nodes, new_nodes)
            if self._checkpointer is not None and hasattr(self._checkpointer, "rebind"):
                # Before the scheduler sees the new shape: in-flight epochs
                # must expect acks from the replacement nodes. Chain
                # manifests are keyed by member names in every shape, so
                # the expected names do not change — only the node objects.
                self._checkpointer.rebind(self._nodes)
            if self._obs is not None and hasattr(self._obs, "rebind"):
                self._obs.rebind(self._nodes, retired=retired_exec)
            self._scheduler.splice(new_nodes)
            chain.nodes = new_nodes
            chain.reset_counters()
            chain.last_adapt = time.monotonic()

    def _chain_executors(self, chain: AdaptiveChain) -> list[NodeExecutor]:
        ids = chain.node_ids
        return [ex for ex in self._scheduler.executors if id(ex.node) in ids]

    def _unfuse_chain(self, chain: AdaptiveChain) -> bool:
        """Break a fused chain into one node (and thread) per constituent."""
        if not chain.fused:
            return False
        started = time.monotonic()
        node = chain.nodes[0]
        operator = node.operator
        chain_exec = self._chain_executors(chain)
        if not self._drain_chain(
            chain, frozenset({node.name}), node.name, chain_exec
        ):
            return False
        # Rebuild from the *live* drained operator instances: state never
        # leaves the process, so nothing is lost or duplicated.
        new_nodes: list[Node] = []
        prev: Node | None = None
        for part in operator.parts:
            fresh = Node(
                part.name, "operator", operator=part.operator,
                base_name=part.base_name,
            )
            if prev is None:
                fresh.inputs = list(node.inputs)
            else:
                stream = Stream(
                    f"{prev.name}->{part.name}", chain.boundary.capacity
                )
                prev.outputs.append(stream)
                fresh.inputs.append(stream)
            new_nodes.append(fresh)
            prev = fresh
        tail = new_nodes[-1]
        tail.outputs = list(node.outputs)
        tail.router = node.router
        self._splice_chain(chain, new_nodes, chain_exec)
        with self._lock:
            chain.fused = False
            chain.mode = "unfused"
            chain.last_action = "unfuse"
            self._count_action("unfuse", time.monotonic() - started)
        self._record_chain_event(
            "unfuse",
            chain,
            {
                "members": list(chain.members),
                "duration_s": round(time.monotonic() - started, 6),
            },
        )
        logger.info(
            "unfused chain %s into %d nodes in %.3fs",
            chain.name, len(new_nodes), time.monotonic() - started,
        )
        return True

    def _fuse_chain(self, chain: AdaptiveChain) -> bool:
        """Collapse a previously unfused chain back into one fused node."""
        if chain.fused:
            return False
        started = time.monotonic()
        nodes = chain.nodes
        chain_exec = self._chain_executors(chain)
        scope = frozenset(n.name for n in nodes)
        if not self._drain_chain(chain, scope, nodes[-1].name, chain_exec):
            return False
        parts = [
            _FusedPart(n.name, n.base_name, n.operator) for n in nodes
        ]
        vectorize = self._plan is not None and self._plan.vectorize
        capable = any(
            bool(getattr(n.operator, "supports_block", False)) for n in nodes
        )
        operator: FusedOperator
        if vectorize and capable:
            operator = VectorizedFusedOperator(chain.name, parts)
        else:
            operator = FusedOperator(chain.name, parts)
        fused = Node(
            chain.name, "operator", operator=operator, router=nodes[-1].router
        )
        fused.mode_reason = "replan: re-fused at runtime"
        fused.inputs = list(nodes[0].inputs)
        fused.outputs = list(nodes[-1].outputs)
        self._splice_chain(chain, [fused], chain_exec)
        with self._lock:
            chain.fused = True
            chain.mode = operator.execution_mode
            chain.last_action = "fuse"
            self._count_action("fuse", time.monotonic() - started)
        self._record_chain_event(
            "fuse",
            chain,
            {
                "mode": chain.mode,
                "duration_s": round(time.monotonic() - started, 6),
            },
        )
        logger.info(
            "re-fused chain %s (%s) in %.3fs",
            chain.name, chain.mode, time.monotonic() - started,
        )
        return True

    def _set_chain_mode(self, chain: AdaptiveChain, mode: str) -> bool:
        """Flip a fused chain between scalar and vectorized execution."""
        if mode not in ("scalar", "vectorized"):
            raise ElasticError(
                f"chain mode must be 'scalar' or 'vectorized', got {mode!r}"
            )
        if not chain.fused or chain.mode == mode:
            return False
        if mode == "vectorized" and not chain.block_capable:
            self._record_chain_event(
                "mode_skipped", chain,
                {"mode": mode, "reason": "no member provides a block variant"},
            )
            return False
        started = time.monotonic()
        node = chain.nodes[0]
        chain_exec = self._chain_executors(chain)
        if not self._drain_chain(
            chain, frozenset({node.name}), node.name, chain_exec
        ):
            return False
        parts = node.operator.parts
        operator: FusedOperator
        if mode == "vectorized":
            operator = VectorizedFusedOperator(chain.name, parts)
        else:
            operator = FusedOperator(chain.name, parts)
        fresh = Node(
            chain.name, "operator", operator=operator, router=node.router
        )
        fresh.mode_reason = f"replan: flipped to {mode} at runtime"
        fresh.inputs = list(node.inputs)
        fresh.outputs = list(node.outputs)
        self._splice_chain(chain, [fresh], chain_exec)
        with self._lock:
            chain.mode = mode
            chain.last_action = f"mode={mode}"
            self._count_action("set_chain_mode", time.monotonic() - started)
        self._record_chain_event(
            "set_chain_mode",
            chain,
            {"mode": mode, "duration_s": round(time.monotonic() - started, 6)},
        )
        logger.info(
            "flipped chain %s to %s in %.3fs",
            chain.name, mode, time.monotonic() - started,
        )
        return True

    # -- rescale protocol ---------------------------------------------------

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
        the rescale was abandoned because the group finished first
        (end-of-stream beat the barrier to the router), the scheduler
        began shutting down, or clamping made it a no-op.
        """
        if target < 1:
            raise ElasticError("target parallelism must be >= 1")
        with self._lock:
            low, high = self._min_parallelism, self._max_parallelism
        target = max(low, min(high, target))
        if target == group.parallelism:
            return False
        started = time.monotonic()
        old_n = group.parallelism
        executors = self._scheduler.executors
        group_exec = [
            ex for ex in executors if id(ex.node) in group.node_ids
        ]
        scope = frozenset(n.name for n in group.nodes)
        epoch = RESCALE_EPOCH_BASE + next(self._epoch_counter)
        barrier = RescaleBarrier(epoch, scope, absorb_at=group.meta.merge_name)
        boundary = group.boundary
        # Inject one barrier copy per boundary producer, so the router's
        # alignment count matches the stream's producer arithmetic.
        for _ in range(boundary.num_producers):
            while not boundary.put(barrier, timeout=0.2):
                if self._drain_aborted(group_exec):
                    self._record_event("abort", group, {"phase": "inject"})
                    return False
        # Wait for the merge to absorb the barrier. No timeout-abort here:
        # once the router consumed the barrier the group is retiring, and
        # walking away would leave the dataflow headless. The only exits
        # are absorption, end-of-stream winning the race, or shutdown.
        while not barrier.wait_absorbed(timeout=0.2):
            if self._drain_aborted(group_exec):
                self._record_event("abort", group, {"phase": "drain"})
                return False
        # The drain may have raced a set_bounds shrink; the group is
        # already retired, so rebuild at the freshly clamped target (old_n
        # if the clamp collapsed the change — still a correct rebuild).
        with self._lock:
            low, high = self._min_parallelism, self._max_parallelism
        target = max(low, min(high, target))
        snapshots = barrier.snapshots
        new_nodes, clone_ops = build_replicated_group(
            group.meta, target,
            inputs=[boundary], outputs=list(group.merge_node.outputs),
        )
        route = lambda key: hash_route(key, target)  # noqa: E731
        for j, member in enumerate(group.meta.members):
            states = [snapshots.get(f"{member}::{i}") for i in range(old_n)]
            prototype = group.meta.factories[j]()
            new_states = prototype.reshard_state(states, target, route)
            for i, state in enumerate(new_states):
                if state is not None:
                    clone_ops[f"{member}::{i}"].restore_state(state)
        if self._plan is not None and self._plan.fusion:
            new_nodes = fuse_linear_chains(new_nodes, vectorize=self._plan.vectorize)
        with self._lock:
            self._splice_node_list(group.nodes, new_nodes)
            if self._checkpointer is not None and hasattr(self._checkpointer, "rebind"):
                # Before the scheduler sees the new names: in-flight epochs
                # must expect acks from the replacement nodes, not the
                # retired ones, or those epochs never commit.
                self._checkpointer.rebind(self._nodes)
            if self._obs is not None and hasattr(self._obs, "rebind"):
                self._obs.rebind(self._nodes, retired=group_exec)
            self._scheduler.splice(new_nodes)
            group.nodes = new_nodes
            group.router_node = new_nodes[0]
            group.merge_node = new_nodes[-1]
            group.parallelism = target
            group.prev_busy_s = 0.0
            group.last_rescale = time.monotonic()
            if target > old_n:
                self._rescales_up += 1
            elif target < old_n:
                self._rescales_down += 1
            self._last_rescale_s = time.monotonic() - started
            self._count_action("rescale", self._last_rescale_s)
        if self._config.adaptive_batching and group.batch_size > 1:
            for ex in self._scheduler.executors:
                if id(ex.node) in group.node_ids and ex.node.kind != "source":
                    ex.set_batching(group.batch_size)
        self._record_event(
            "rescale",
            group,
            {
                "from": old_n,
                "to": target,
                "epoch": epoch,
                "duration_s": round(self._last_rescale_s, 6),
                "signals": None if signals is None else vars(signals),
            },
        )
        logger.info(
            "rescaled group %s: %d -> %d replicas in %.3fs",
            group.name, old_n, target, self._last_rescale_s,
        )
        return target != old_n

    def _drain_aborted(self, group_exec: list[NodeExecutor]) -> bool:
        """True when the drain can never complete (EOS won, or shutdown)."""
        if self._scheduler.stopping or not self._scheduler.alive():
            return True
        return any(ex.finalized for ex in group_exec)

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

    # -- observability ------------------------------------------------------

    def _record_event(
        self, kind: str, group: ElasticGroup, detail: dict[str, Any]
    ) -> None:
        event = {
            "kind": kind,
            "group": group.name,
            "parallelism": group.parallelism,
            "wall_time": time.time(),
            **detail,
        }
        self.events.append(event)

    def _record_chain_event(
        self, kind: str, chain: AdaptiveChain, detail: dict[str, Any]
    ) -> None:
        event = {
            "kind": kind,
            "chain": chain.name,
            "wall_time": time.time(),
            **detail,
        }
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
                if chain.last_action:
                    for node in chain.nodes:
                        samples.append(
                            Sample(
                                "elastic_last_adaptation",
                                (
                                    ("operator", node.name),
                                    ("action", chain.last_action),
                                ),
                                float(chain.last_adapt),
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
