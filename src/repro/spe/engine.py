"""The engine facade: deploy queries, run them, collect a report.

``StreamEngine`` hides scheduler selection behind a single ``run`` call for
finite replays, and a ``start``/``stop`` pair for open-ended deployments
(live monitoring of an ongoing print).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from .errors import EngineStateError
from .metrics import FiveNumberSummary, OperatorStats
from .plan import PlanConfig, compile_plan, render_plan
from .query import Node, Query
from .scheduler import SynchronousScheduler, ThreadedScheduler
from .sink import Sink

# Hook invoked with the materialized nodes after build, before execution.
# Recovery uses it to restore operator state and seek sources.
BuildHook = Callable[[list[Node]], None]


@dataclass
class RunReport:
    """Outcome of one query execution."""

    query_name: str
    operator_stats: dict[str, OperatorStats]
    sinks: dict[str, Sink]
    wall_seconds: float = 0.0
    extra: dict[str, Any] = field(default_factory=dict)

    def latency_summary(self, sink_name: str | None = None) -> FiveNumberSummary:
        """Five-number latency summary of one sink (or the only sink)."""
        sink = self._pick_sink(sink_name)
        return sink.latency.summary()

    def latency_samples(self, sink_name: str | None = None) -> list[float]:
        """Raw per-result latency samples of one sink, seconds."""
        return self._pick_sink(sink_name).latency.samples()

    def results_delivered(self, sink_name: str | None = None) -> int:
        """Number of results one sink received."""
        return len(self._pick_sink(sink_name).latency)

    def _pick_sink(self, sink_name: str | None) -> Sink:
        if sink_name is not None:
            return self.sinks[sink_name]
        if len(self.sinks) != 1:
            raise ValueError(f"specify a sink name; query has {sorted(self.sinks)}")
        return next(iter(self.sinks.values()))

    def format(self) -> str:
        """Human-readable per-operator summary of the run."""
        lines = [
            f"query {self.query_name!r}: {self.wall_seconds:.3f}s wall, "
            f"{len(self.sinks)} sink(s)"
        ]
        header = f"{'node':<28} {'in':>10} {'out':>10} {'busy_s':>10}"
        lines.append(header)
        lines.append("-" * len(header))
        for name in sorted(self.operator_stats):
            stats = self.operator_stats[name]
            lines.append(
                f"{name:<28} {stats.tuples_in:>10} {stats.tuples_out:>10} "
                f"{stats.processing_seconds:>10.4f}"
            )
        for name, sink in sorted(self.sinks.items()):
            samples = len(sink.latency)
            if samples:
                summary = sink.latency.summary()
                lines.append(
                    f"{name}: {samples} results, latency median "
                    f"{summary.median * 1e3:.2f} ms / max {summary.maximum * 1e3:.2f} ms"
                )
            else:
                lines.append(f"{name}: 0 results")
        return "\n".join(lines)


def threaded_scheduler(
    plan: PlanConfig | None, obs: Any | None = None, checkpoint_listener=None
) -> ThreadedScheduler:
    """The threaded scheduler a compiled ``plan`` runs on (None: as declared)."""
    if plan is None:
        return ThreadedScheduler(checkpoint_listener=checkpoint_listener, obs=obs)
    return ThreadedScheduler(
        checkpoint_listener=checkpoint_listener,
        edge_batch_size=plan.edge_batch_size,
        linger_s=plan.linger_s,
        obs=obs,
    )


class StreamEngine:
    """Runs continuous queries with a chosen scheduling strategy."""

    def __init__(self, mode: str = "threaded", capacity: int | None = 10_000) -> None:
        if mode not in ("threaded", "sync"):
            raise ValueError("mode must be 'threaded' or 'sync'")
        self._mode = mode
        self._capacity = capacity
        self._active: ThreadedScheduler | None = None
        self._active_nodes: list[Node] | None = None

    def _prepare(
        self,
        query: Query,
        checkpointer: Any | None,
        on_built: BuildHook | None,
        capacity: int | None,
        plan: PlanConfig | None = None,
        obs: Any | None = None,
        force_replication: bool = False,
    ):
        """Build the query, compile the plan, bind checkpointer and obs."""
        nodes = query.build(capacity=capacity)
        nodes = compile_plan(nodes, plan, force_replication=force_replication)
        listener = None
        if checkpointer is not None:
            # Duck-typed so repro.spe never imports repro.recovery: any
            # object with bind(nodes) + on_node_snapshot(name, epoch, state).
            checkpointer.bind(nodes)
            listener = checkpointer.on_node_snapshot
        if obs is not None:
            # Also duck-typed (repro.obs.ObsContext): indexes streams and
            # sinks for scrape-time collection, installs the QoS watchdog.
            obs.bind(nodes)
        if on_built is not None:
            on_built(nodes)
        return nodes, listener

    def run(
        self,
        query: Query,
        checkpointer: Any | None = None,
        on_built: BuildHook | None = None,
        batch_size: int | None = None,
        plan: PlanConfig | bool | None = None,
        obs: Any | None = None,
    ) -> RunReport:
        """Execute a query until all sources are exhausted; blocking.

        ``plan`` enables the plan compiler (:mod:`repro.spe.plan`):
        ``True`` for defaults, a :class:`PlanConfig` for explicit knobs,
        ``None``/``False`` to run the graph exactly as declared. The sync
        scheduler always uses unbatched transport (it is the deterministic
        oracle), but still honours fusion/replication rewrites.
        """
        import time

        plan = PlanConfig.resolve(plan)
        nodes, listener = self._prepare(
            query,
            checkpointer,
            on_built,
            capacity=None if self._mode == "sync" else self._capacity,
            plan=plan,
            obs=obs,
        )
        started = time.monotonic()
        if self._mode == "sync":
            scheduler = SynchronousScheduler(
                checkpoint_listener=listener,
                obs=obs,
                **({} if batch_size is None else {"batch_size": batch_size}),
            )
        else:
            scheduler = threaded_scheduler(plan, obs, listener)
        stats = scheduler.run(nodes)
        wall = time.monotonic() - started
        report = RunReport(
            query_name=query.name,
            operator_stats=stats,
            sinks=_sinks_of(nodes),
            wall_seconds=wall,
        )
        if plan is not None:
            report.extra["plan"] = plan.describe()
        if obs is not None:
            report.extra["metrics"] = obs.snapshot()
        return report

    def explain(self, query: Query, plan: PlanConfig | bool | None = True) -> str:
        """Render the compiled plan without executing it."""
        resolved = PlanConfig.resolve(plan)
        nodes = compile_plan(query.build(capacity=self._capacity), resolved)
        return render_plan(nodes, title=query.name, config=resolved)

    def start(
        self,
        query: Query,
        checkpointer: Any | None = None,
        on_built: BuildHook | None = None,
        plan: PlanConfig | bool | None = None,
        obs: Any | None = None,
        force_replication: bool = False,
    ) -> dict[str, Sink]:
        """Deploy a query in the background (threaded only)."""
        if self._mode != "threaded":
            raise EngineStateError("background deployment requires threaded mode")
        if self._active is not None:
            raise EngineStateError("a query is already running; stop() it first")
        plan = PlanConfig.resolve(plan)
        nodes, listener = self._prepare(
            query, checkpointer, on_built, capacity=self._capacity, plan=plan,
            obs=obs, force_replication=force_replication,
        )
        self._active = threaded_scheduler(plan, obs, listener)
        self._active_nodes = nodes
        self._active.start(nodes)
        return _sinks_of(nodes)

    def runtime(self) -> tuple[ThreadedScheduler, list[Node]]:
        """The live scheduler and node list of a started deployment.

        The returned node list is the engine's own mutable list: a rescale
        splices replacement nodes into it in place, so reports assembled
        after the run see the final plan shape.
        """
        if self._active is None or self._active_nodes is None:
            raise EngineStateError("no query is running")
        return self._active, self._active_nodes

    @staticmethod
    def sinks_of(nodes: list[Node]) -> dict[str, Sink]:
        """Public helper: the sink objects of a materialized node list."""
        return _sinks_of(nodes)

    def stop(self, timeout: float = 10.0) -> None:
        """Request shutdown of the background query and wait for it."""
        if self._active is None:
            return
        self._active.stop()
        self._active.join(timeout=timeout)
        self._active = None
        self._active_nodes = None

    def running(self) -> bool:
        """True while a background query still has live node threads."""
        return self._active is not None and self._active.alive()

    def wait(self, timeout: float | None = None) -> None:
        """Wait for a background query to finish naturally."""
        if self._active is None:
            raise EngineStateError("no query is running")
        self._active.join(timeout=timeout)
        self._active = None
        self._active_nodes = None


def _sinks_of(nodes: list[Node]) -> dict[str, Sink]:
    return {node.name: node.sink for node in nodes if node.kind == "sink"}
