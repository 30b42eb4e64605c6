"""The engine facade: deploy queries, run them, collect a report.

``StreamEngine`` hides scheduler selection behind a single ``run`` call for
finite replays, and a ``start``/``stop`` pair for open-ended deployments
(live monitoring of an ongoing print).
"""

from __future__ import annotations

import time
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

# Builds the supervisor (the elastic controller) of a graph about to start
# from its scheduler and node list; raises to refuse the graph, None leaves
# it unmanaged. Duck-typed so repro.spe never imports repro.elastic.
Supervise = Callable[[ThreadedScheduler, list[Node]], Any]


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


def run_report(
    query_name: str, stats: dict[str, OperatorStats], nodes: list[Node],
    wall_seconds: float, plan: PlanConfig | None = None, obs: Any | None = None,
    supervisor: Any | None = None,
) -> RunReport:
    """The one assembly of a run's report, whatever route ran the graph."""
    report = RunReport(query_name, stats, _sinks_of(nodes), wall_seconds)
    if plan is not None:
        report.extra["plan"] = plan.describe()
    if supervisor is not None:
        report.extra["elastic"] = supervisor.summary()
    if obs is not None:
        report.extra["metrics"] = obs.snapshot()
    return report


def launch(
    nodes: list[Node], plan: PlanConfig | None, obs: Any | None = None,
    checkpoint_listener: Any | None = None, supervise: Supervise | None = None,
) -> tuple[ThreadedScheduler, Any | None]:
    """Start compiled ``nodes`` on a threaded scheduler: the one launch path.

    Binds ``obs`` (duck-typed :class:`repro.obs.ObsContext`) to the graph,
    builds the supervisor before any node runs (a graph it refuses leaves
    nothing running) and starts it with the nodes. End it with :func:`join`.
    """
    if obs is not None:
        obs.bind(nodes)
    scheduler = ThreadedScheduler(
        checkpoint_listener=checkpoint_listener,
        obs=obs,
        planned=plan is not None,
    )
    supervisor = None if supervise is None else supervise(scheduler, nodes)
    scheduler.start(nodes)
    if supervisor is not None:
        supervisor.start()
    return scheduler, supervisor


def join(
    scheduler: ThreadedScheduler, supervisor: Any | None, timeout: float | None = None
) -> bool:
    """Wait for a launched graph, then stop its supervisor; re-raises the
    first node error. False when ``timeout`` expires first: both still run."""
    try:
        scheduler.join(timeout=timeout)
    finally:
        done = not scheduler.alive()
        if done and supervisor is not None:
            supervisor.stop()
    return done


class StreamEngine:
    """Runs continuous queries with a chosen scheduling strategy."""

    def __init__(self, mode: str = "threaded") -> None:
        if mode not in ("threaded", "sync"):
            raise ValueError("mode must be 'threaded' or 'sync'")
        self._mode = mode
        # the background query: scheduler, supervisor, report of its run
        self._active: tuple[ThreadedScheduler, Any, Callable[[], RunReport]] | None = None

    def _prepare(
        self,
        query: Query,
        checkpointer: Any | None,
        on_built: BuildHook | None,
        plan: PlanConfig | None,
        force_replication: bool = False,
    ):
        """Build the query, compile the plan, bind the checkpointer."""
        nodes = compile_plan(query.build(), plan, force_replication=force_replication)
        listener = None
        if checkpointer is not None:
            # Duck-typed so repro.spe never imports repro.recovery: any
            # object with bind(nodes) + on_node_snapshot(name, epoch, state).
            checkpointer.bind(nodes)
            listener = checkpointer.on_node_snapshot
        if on_built is not None:
            on_built(nodes)
        return nodes, listener

    def run(
        self,
        query: Query,
        checkpointer: Any | None = None,
        on_built: BuildHook | None = None,
        plan: PlanConfig | bool | None = None,
        obs: Any | None = None,
    ) -> RunReport:
        """Execute a query until all sources are exhausted; blocking.

        ``plan`` enables the plan compiler (:mod:`repro.spe.plan`):
        ``True`` for defaults, a :class:`PlanConfig` for explicit knobs,
        ``None``/``False`` to run the graph exactly as declared. The sync
        scheduler sends operator output tuple by tuple whatever the plan
        (it is the deterministic oracle), but still honours
        fusion/replication rewrites.
        """
        if self._mode == "threaded":
            self.start(query, checkpointer, on_built, plan, obs)
            return self.wait()
        plan = PlanConfig.resolve(plan)
        nodes, listener = self._prepare(query, checkpointer, on_built, plan)
        if obs is not None:
            obs.bind(nodes)
        started = time.monotonic()
        stats = SynchronousScheduler(checkpoint_listener=listener, obs=obs).run(nodes)
        return run_report(query.name, stats, nodes, time.monotonic() - started, plan, obs)

    def explain(self, query: Query, plan: PlanConfig | bool | None = True) -> str:
        """Render the compiled plan without executing it."""
        resolved = PlanConfig.resolve(plan)
        nodes = compile_plan(query.build(), resolved)
        return render_plan(nodes, title=query.name, config=resolved)

    def start(
        self,
        query: Query,
        checkpointer: Any | None = None,
        on_built: BuildHook | None = None,
        plan: PlanConfig | bool | None = None,
        obs: Any | None = None,
        force_replication: bool = False,
        supervise: Supervise | None = None,
    ) -> dict[str, Sink]:
        """Deploy a query in the background (threaded only); its sinks."""
        if self._mode != "threaded":
            raise EngineStateError("background deployment requires threaded mode")
        if self._active is not None:
            raise EngineStateError("a query is already running; stop() it first")
        plan = PlanConfig.resolve(plan)
        nodes, listener = self._prepare(query, checkpointer, on_built, plan, force_replication)
        started = time.monotonic()
        scheduler, supervisor = launch(nodes, plan, obs, listener, supervise)
        # The node list is the graph's own: a rescale splices replacement
        # nodes into it in place, so the report sees the final plan shape.
        self._active = (scheduler, supervisor, lambda: run_report(
            query.name, scheduler.stats(), nodes, time.monotonic() - started,
            plan, obs, supervisor,
        ))
        return _sinks_of(nodes)

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the background query's supervisor, then its node threads."""
        if self._active is None:
            return
        scheduler, supervisor, _ = self._active
        self._active = None
        if supervisor is not None:
            supervisor.stop()
        scheduler.stop()
        scheduler.join(timeout=timeout)

    @property
    def supervisor(self) -> Any | None:
        """The background query's supervisor (the elastic controller), if any."""
        return None if self._active is None else self._active[1]

    def running(self) -> bool:
        """True while a background query still has live node threads."""
        return self._active is not None and self._active[0].alive()

    def wait(self, timeout: float | None = None) -> RunReport | None:
        """Wait for the background query to finish naturally; its report.

        None when ``timeout`` expires first: the query keeps running, owned.
        """
        active = self._active
        if active is None:
            raise EngineStateError("no query is running")
        scheduler, supervisor, report = active
        try:
            finished = join(scheduler, supervisor, timeout)
        finally:
            if not scheduler.alive() and self._active is active:
                self._active = None
        return report() if finished else None


def _sinks_of(nodes: list[Node]) -> dict[str, Sink]:
    return {node.name: node.sink for node in nodes if node.kind == "sink"}
