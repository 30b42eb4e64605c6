"""The STRATA framework facade — the paper's Table 1 API.

One :class:`Strata` instance owns the three data-handling components of
Figure 2: a stream processing engine for analysis, a pub/sub broker for
the module connectors, and a key-value store for data-at-rest. Experts
compose pipelines by chaining the API methods over named streams::

    strata = Strata()
    strata.add_source(PrintingParameterCollector(records), "pp")
    strata.add_source(OTImageCollector(records), "OT")
    strata.fuse("OT", "pp", "OT&pp")
    strata.partition("OT&pp", "spec", IsolateSpecimens(image_px))
    strata.partition("spec", "cell", IsolateCells(edge))
    strata.detect_event("cell", "cellLabel", LabelCell(strata.kv))
    strata.correlate_events("cellLabel", "out", L, DBSCANCorrelator(...))
    strata.deliver("out", expert_sink)
    report = strata.deploy(DeployConfig(plan=True))

Every method compiles to native operators of the underlying SPE, so
pipelines inherit parallel execution (``parallelism=`` on the Event
Monitor methods shards work by ``(job, specimen)``) and stay portable
across engines. snake_case is the canonical method surface; the paper's
camelCase spellings (Table 1: ``addSource``, ``detectEvent``,
``correlateEvents``) are installed as exact aliases.

Deployment is driven by one validated config object
(:class:`~repro.core.deploy.DeployConfig` — plan compiler, distribution,
recovery, observability, and elastic rescaling knobs in one place), which
is the only argument ``deploy``/``start`` take.
"""

from __future__ import annotations

import itertools
import math
import time
from typing import Any, Callable, Hashable

from ..kvstore.api import KVStore
from ..kvstore.memory import MemoryStore
from ..obs.context import ObsConfig, ObsContext
from ..obs.registry import MetricsSnapshot
from ..pubsub.broker import Broker
from ..recovery.source import CheckpointableSource
from ..spe.engine import RunReport, StreamEngine
from ..spe.operators.filter import FilterOperator
from ..spe.operators.join import JoinOperator
from ..spe.query import Query
from ..spe.sink import CollectingSink, Sink
from ..spe.source import Source
from ..spe.tuples import StreamTuple
from .connectors import PubSubReaderSource, PubSubWriterSink, topic_for_stream
from .deploy import DeployConfig, RecoveryConfig
from .errors import (
    DeployConfigError,
    DeploymentError,
    PipelineDefinitionError,
    UnknownStreamError,
)
from .handles import StreamHandle, install_camelcase_aliases
from .operators import (
    CorrelateEventsOperator,
    CorrelateFunction,
    DetectEventOperator,
    PartitionOperator,
    UserFunction,
)
from .punctuation import is_punctuation

#: module names, matching Figure 2
MODULE_RAW = "raw-data-collector"
MODULE_MONITOR = "event-monitor"
MODULE_AGGREGATOR = "event-aggregator"
MODULE_EXPERT = "expert"

#: per-verb output schema hints (Table 1), carried on stream handles
SCHEMA_SOURCE = "<tau, job, layer, [k1:v1, k2:v2, ...]>"
SCHEMA_FUSE = "<tau, job, layer, [payload1 ++ payload2]>"
SCHEMA_PARTITION = "<tau, job, layer, specimen, portion, [k1:v1, ...]>"
SCHEMA_DETECT = "<tau, job, layer, specimen, portion, [event attrs]>"
SCHEMA_CORRELATE = "<tau, job, layer, specimen, [result attrs]>"


def _specimen_key(t: StreamTuple) -> Hashable:
    """Shard key keeping a specimen's events and punctuation together."""
    return (t.job, t.specimen)


class Strata:
    """Entry point of the framework: API methods + deployment control."""

    def __init__(
        self,
        store: KVStore | None = None,
        broker: Broker | None = None,
        engine_mode: str = "threaded",
        connector_mode: str = "direct",
        capacity: int | None = 10_000,
        name: str = "strata",
        obs: ObsContext | ObsConfig | bool | None = None,
    ) -> None:
        if connector_mode not in ("direct", "pubsub"):
            raise ValueError("connector_mode must be 'direct' or 'pubsub'")
        if connector_mode == "pubsub" and engine_mode != "threaded":
            raise ValueError("pub/sub connectors require the threaded engine")
        self._store = store if store is not None else MemoryStore()
        self._broker = broker if broker is not None else Broker()
        self._engine = StreamEngine(mode=engine_mode, capacity=capacity)
        self._engine_mode = engine_mode
        self._connector_mode = connector_mode
        # observability: True for defaults, an ObsConfig/ObsContext for
        # explicit knobs, None/False to run unobserved (zero overhead)
        self._obs = ObsContext.resolve(obs)
        self._query = Query(name, default_capacity=capacity)
        self._capacity = capacity
        # stream name -> (producing node name, producing module)
        self._streams: dict[str, tuple[str, str]] = {}
        # streams whose tuples carry a specimen assignment: stages keyed by
        # (job, specimen) downstream of these are safe to replicate.
        self._keyed_streams: set[str] = set()
        self._uid = itertools.count()
        self._sinks: dict[str, Sink] = {}
        self._deployed = False
        # set by config-driven deployments: a periodic checkpointer Strata
        # itself materialized (and thus owns)
        self._ckpt_periodic: Any | None = None

    # -- Key-Value Store module (Table 1: store/get) -----------------------

    @property
    def kv(self) -> KVStore:
        """The shared key-value store, accessible by all modules."""
        return self._store

    @property
    def broker(self) -> Broker:
        """The pub/sub broker backing the connectors."""
        return self._broker

    @property
    def query(self) -> Query:
        """The logical query being composed (used by the distributed CLI)."""
        return self._query

    @property
    def capacity(self) -> int | None:
        """Default stream capacity passed to the engine."""
        return self._capacity

    def store(self, key: str, value: Any) -> None:
        """Persist data-at-rest (Table 1 ``store(k, v)``)."""
        self._store.put(key, value)

    def get(self, key: str, default: Any = None) -> Any:
        """Retrieve data-at-rest (Table 1 ``get(k)``)."""
        return self._store.get(key, default)

    # -- Raw Data Collector module -----------------------------------------

    def add_source(
        self, src: Source, s_out: str, checkpointable: bool = False
    ) -> StreamHandle:
        """Register a collector whose stream ``s_out`` feeds pipelines.

        Output schema: ``<tau, job, layer, [k1:v1, k2:v2, ...]>``.
        ``checkpointable=True`` wraps the source so checkpoint barriers can
        be injected into its stream (required to ``deploy``/``start`` with
        a checkpoint coordinator); already-wrapped sources pass through.

        Returns a :class:`~repro.core.handles.StreamHandle` for ``s_out``
        (as every stream-producing verb does) — usable both as the plain
        stream name and as a fluent chaining/metrics handle.
        """
        self._check_mutable()
        self._check_new_stream(s_out)
        if checkpointable and not hasattr(src, "request_barrier"):
            src = CheckpointableSource(src)
        node = f"source:{s_out}"
        self._query.add_source(node, src)
        self._streams[s_out] = (node, MODULE_RAW)
        return self._handle(s_out, SCHEMA_SOURCE)

    # -- Event Monitor module ----------------------------------------------

    def fuse(
        self,
        s_in1: str,
        s_in2: str,
        s_out: str,
        ws: float | None = None,
        wa: float | None = None,
        gb: list[str] | None = None,
    ) -> StreamHandle:
        """Fuse tuples of two streams sharing ``job`` and ``layer``.

        Without ``ws``/``wa`` only tuples that also share ``tau`` fuse;
        with them, tuples falling in the same window fuse (tumbling
        windows match by window index; for sliding windows tuples within
        ``ws`` of each other match). ``gb`` adds payload sub-attributes to
        the matching key. Output payload concatenates both inputs' payloads
        (keys must be disjoint — Table 1).
        """
        self._check_mutable()
        self._check_new_stream(s_out)
        if (ws is None) != (wa is None):
            raise PipelineDefinitionError("ws and wa must be given together")
        gb_keys = tuple(gb or ())

        if ws is None:
            join_ws = 0.0

            def group_by(t: StreamTuple) -> Hashable:
                return (t.job, t.layer) + tuple(t.payload.get(k) for k in gb_keys)

        elif ws == wa:  # tumbling: same window <=> same window index
            join_ws = float(ws)
            window = float(ws)

            def group_by(t: StreamTuple) -> Hashable:
                return (t.job, t.layer, math.floor(t.tau / window)) + tuple(
                    t.payload.get(k) for k in gb_keys
                )

        else:  # sliding approximation: within ws of each other
            join_ws = float(ws)

            def group_by(t: StreamTuple) -> Hashable:
                return (t.job, t.layer) + tuple(t.payload.get(k) for k in gb_keys)

        node = f"fuse:{s_out}"
        join = JoinOperator(node, ws=join_ws, group_by=group_by)
        upstream1 = self._resolve_upstream(s_in1, MODULE_MONITOR)
        upstream2 = self._resolve_upstream(s_in2, MODULE_MONITOR)
        self._query.add_operator(node, join, [upstream1, upstream2])
        self._streams[s_out] = (node, MODULE_MONITOR)
        if s_in1 in self._keyed_streams or s_in2 in self._keyed_streams:
            self._keyed_streams.add(s_out)
        return self._handle(s_out, SCHEMA_FUSE)

    def partition(
        self,
        s_in: str,
        s_out: str,
        f: UserFunction | None = None,
        parallelism: int = 1,
        replicable: bool | None = None,
    ) -> StreamHandle:
        """Split tuples into independently processable specimen portions.

        ``f`` maps each input tuple to output tuples tagged with
        ``specimen`` and ``portion``; without it, STRATA processes each
        tuple as a whole (Table 1 defaults). ``replicable`` overrides the
        automatic keyed-replication eligibility (``False`` keeps the
        stage standalone so the compiler may fuse it into an adaptable
        chain instead).
        """
        self._check_mutable()
        self._check_new_stream(s_out)
        node = f"partition:{s_out}"
        upstream = self._resolve_upstream(s_in, MODULE_MONITOR)
        # Always a factory: the plan compiler may clone replicas behind a
        # hash router. Replication is only sound once tuples carry specimen
        # keys, i.e. downstream of the first partition stage.
        self._query.add_operator(
            node,
            lambda: PartitionOperator(node, f),
            [upstream],
            parallelism=parallelism,
            key_fn=_specimen_key,
            replicable=(
                s_in in self._keyed_streams if replicable is None else replicable
            ),
        )
        self._streams[s_out] = (node, MODULE_MONITOR)
        self._keyed_streams.add(s_out)
        return self._handle(s_out, SCHEMA_PARTITION)

    def detect_event(
        self,
        s_in: str,
        s_out: str,
        f: UserFunction,
        parallelism: int = 1,
        replicable: bool | None = None,
    ) -> StreamHandle:
        """Transform tuples into event tuples via the user function ``f``.

        ``replicable=False`` keeps the stage out of keyed replica groups
        (it stays fusable into a runtime-adaptable chain).
        """
        self._check_mutable()
        self._check_new_stream(s_out)
        node = f"detect:{s_out}"
        upstream = self._resolve_upstream(s_in, MODULE_MONITOR)
        self._query.add_operator(
            node,
            lambda: DetectEventOperator(node, f),
            [upstream],
            parallelism=parallelism,
            key_fn=_specimen_key,
            replicable=(
                s_in in self._keyed_streams if replicable is None else replicable
            ),
        )
        self._streams[s_out] = (node, MODULE_MONITOR)
        self._keyed_streams.add(s_out)
        return self._handle(s_out, SCHEMA_DETECT)

    # -- Event Aggregator module --------------------------------------------

    def correlate_events(
        self,
        s_in: str,
        s_out: str,
        l: int,
        f: CorrelateFunction,
        parallelism: int = 1,
        replicable: bool | None = None,
    ) -> StreamHandle:
        """Aggregate events per (layer, specimen) plus the previous ``l-1``
        layers; events are grouped by specimen automatically (§4).
        ``replicable=False`` keeps the stage out of keyed replica groups."""
        self._check_mutable()
        self._check_new_stream(s_out)
        node = f"correlate:{s_out}"
        upstream = self._resolve_upstream(s_in, MODULE_AGGREGATOR)
        self._query.add_operator(
            node,
            lambda: CorrelateEventsOperator(node, l, f),
            [upstream],
            parallelism=parallelism,
            key_fn=_specimen_key,
            replicable=(
                s_in in self._keyed_streams if replicable is None else replicable
            ),
        )
        self._streams[s_out] = (node, MODULE_AGGREGATOR)
        self._keyed_streams.add(s_out)
        return self._handle(s_out, SCHEMA_CORRELATE)

    # -- delivery & deployment ----------------------------------------------

    def deliver(self, s_in: str, sink: Sink | None = None) -> Sink:
        """Deliver a stream's results to the expert; returns the sink.

        Layer-completeness punctuation is framework-internal and is
        filtered out here, so the expert sees data tuples only.
        """
        self._check_mutable()
        if sink is None:
            sink = CollectingSink(f"expert:{s_in}")
        uid = next(self._uid)
        upstream = self._resolve_upstream(s_in, MODULE_EXPERT)
        guard = f"depunct:{s_in}:{uid}"
        self._query.add_operator(
            guard,
            FilterOperator(guard, lambda t: not is_punctuation(t)),
            [upstream],
        )
        node = f"sink:{sink.name}:{uid}"
        self._query.add_sink(node, sink, [guard])
        self._sinks[node] = sink
        return sink

    @staticmethod
    def _coerce_config(config: DeployConfig | None) -> DeployConfig:
        """``deploy``/``start`` take a :class:`DeployConfig` or nothing."""
        if config is None:
            return DeployConfig()
        if not isinstance(config, DeployConfig):
            raise DeployConfigError(
                f"config must be a DeployConfig, got {config!r}; e.g. "
                "deploy(DeployConfig(plan=True, recovery=RecoveryConfig(...)))"
            )
        return config

    def _materialize_recovery(
        self, recovery: RecoveryConfig | None
    ) -> tuple[Any | None, Callable | None]:
        """Turn a RecoveryConfig into a live (checkpointer, on_built hook).

        Declarative knobs build a coordinator against this instance's own
        KV store; ``interval_s`` arms periodic mode, started from the
        ``on_built`` hook (after the coordinator is bound to the graph)
        and owned — i.e. stopped — by this Strata instance.
        """
        if recovery is None or not recovery.active:
            return None, None
        checkpointer = recovery.checkpointer
        periodic = False
        if checkpointer is None and (
            recovery.interval_s is not None or recovery.retain is not None
        ):
            from ..recovery.coordinator import CheckpointCoordinator

            checkpointer = CheckpointCoordinator(
                self._store, interval=recovery.interval_s, retain=recovery.retain
            )
            periodic = recovery.interval_s is not None
        restore = self._recovery_hook(recovery.recover_from)
        if not periodic:
            return checkpointer, restore
        owned = checkpointer

        def hook(nodes: list) -> None:
            if restore is not None:
                restore(nodes)
            owned.start_periodic()

        self._ckpt_periodic = owned
        return checkpointer, hook

    def deploy(self, config: DeployConfig | None = None) -> RunReport:
        """Run the composed pipeline to completion (finite sources).

        ``config`` is a :class:`~repro.core.deploy.DeployConfig` grouping
        every subsystem's knobs — plan compiler, distribution, recovery,
        observability override, and elastic rescaling — validated as a
        whole; invalid combinations raise
        :class:`~repro.core.errors.DeployConfigError`.

        With observability enabled, the run's final metrics snapshot lands
        in ``report.extra["metrics"]``; with elastic rescaling enabled,
        the controller's decision history lands in
        ``report.extra["elastic"]``. The threaded engine runs the pipeline
        as :meth:`start` + :meth:`wait` do.
        """
        cfg = self._coerce_config(config)
        self._obs = cfg.resolved_obs(self._obs)
        dist_config = cfg.resolved_dist()
        if dist_config is not None:
            from ..dist import DistCoordinator

            if self._connector_mode != "pubsub":
                raise DeployConfigError(
                    "distributed deployment requires connector_mode='pubsub' "
                    "(stages are cut at the pub/sub connector edges)"
                )
            self._deployed = True
            return DistCoordinator(
                self._query, self._broker, dist_config, obs=self._obs,
                capacity=self._capacity, plan=cfg.plan, elastic=cfg.elastic,
            ).run()
        launch = self._launch_args(cfg)
        try:
            if self._engine_mode == "sync":
                return self._engine.run(self._query, **launch)
            self._engine.start(self._query, **launch)
            return self._engine.wait()
        finally:
            self._teardown_config_runtime()

    def start(self, config: DeployConfig | None = None) -> dict[str, Sink]:
        """Deploy in the background (threaded engine); returns the sinks.

        Same ``config`` semantics as :meth:`deploy`, except
        distributed execution is ``deploy()``-only. With observability
        enabled, :meth:`metrics` can be polled while the deployment runs —
        this is what the ``top`` CLI verb and ``--metrics-out`` build on.
        """
        cfg = self._coerce_config(config)
        self._obs = cfg.resolved_obs(self._obs)
        if cfg.dist is not None:
            raise DeployConfigError(
                "distributed deployment runs to completion and is deploy()-"
                "only; start() backgrounds the in-process engine"
            )
        launch = self._launch_args(cfg)
        try:
            return self._engine.start(self._query, **launch)
        except BaseException:
            self._teardown_config_runtime()
            raise

    def _launch_args(self, cfg: DeployConfig) -> dict[str, Any]:
        """Engine arguments of an in-process deployment: recovery, plan and,
        with elastic rescaling, what :func:`~repro.elastic.elastic_plan`
        compiles plus the controller supervising it."""
        if cfg.elastic is not None and self._engine_mode != "threaded":
            raise DeployConfigError(
                "elastic rescaling drains and re-splices live node threads; "
                "it requires engine_mode='threaded'"
            )
        checkpointer, on_built = self._materialize_recovery(cfg.recovery)
        self._deployed = True
        if self._obs is not None and hasattr(checkpointer, "attach_metrics"):
            # checkpoint duration/size metrics land in the obs registry
            checkpointer.attach_metrics(self._obs.registry)
        args = dict(checkpointer=checkpointer, on_built=on_built, plan=cfg.plan, obs=self._obs)
        if cfg.elastic is not None:
            from ..elastic import elastic_plan, elastic_supervisor

            plan, args["force_replication"] = elastic_plan(cfg.plan, cfg.elastic)
            args.update(plan=plan, supervise=elastic_supervisor(
                cfg.elastic, plan, obs=self._obs, checkpointer=checkpointer
            ))
        return args

    def _teardown_config_runtime(self) -> None:
        """Stop the periodic checkpointer this Strata materialized, if any."""
        if self._ckpt_periodic is not None:
            self._ckpt_periodic.stop()
            self._ckpt_periodic = None

    def explain(self, plan: Any | None = True) -> str:
        """Render the physical plan ``deploy(DeployConfig(plan=plan))``
        would run.

        Builds (but does not execute) the pipeline, applies the compiler
        passes, and returns a plan listing — fused chains, routers, and
        replica fan-out included. Accepts a :class:`DeployConfig` too, in
        which case its ``plan`` field is used.
        """
        if isinstance(plan, DeployConfig):
            plan = plan.plan
        return self._engine.explain(self._query, plan=plan)

    def _recovery_hook(self, recover_from: Any | None):
        if recover_from is None:
            return None
        if callable(recover_from):  # a RecoveryCoordinator (or compatible)
            return recover_from
        from ..recovery.recover import RecoveryCoordinator

        store = self._store if recover_from is True else recover_from
        return RecoveryCoordinator(store)

    def stop(self, timeout: float = 10.0) -> None:
        """Stop a background deployment.

        The elastic controller (if any) is stopped first — waiting out an
        in-flight rescale so the graph is never torn down mid-splice —
        then the engine's node threads.
        """
        self._teardown_config_runtime()
        self._engine.stop(timeout=timeout)

    def running(self) -> bool:
        """True while a background deployment still has live node threads."""
        return self._engine.running()

    def wait(self, timeout: float | None = None) -> None:
        """Wait for a background deployment to finish naturally.

        When ``timeout`` expires first the deployment keeps running, with
        its elastic controller and periodic checkpointer.
        """
        try:
            self._engine.wait(timeout=timeout)
        finally:
            if not self._engine.running():
                self._teardown_config_runtime()

    @property
    def elastic(self) -> Any | None:
        """The live rescale controller of an elastic deployment, if any."""
        return self._engine.supervisor

    # -- observability -------------------------------------------------------

    @property
    def obs(self) -> ObsContext | None:
        """The observability context, or None when running unobserved."""
        return self._obs

    def metrics(self) -> MetricsSnapshot:
        """A point-in-time snapshot of every pipeline metric.

        Live during a background deployment (each call re-scrapes), final
        after :meth:`deploy` returns. Without ``obs=`` enabled, returns an
        empty snapshot rather than raising, so reporting code can run
        unconditionally.
        """
        if self._obs is None:
            return MetricsSnapshot(wall_time=time.time(), samples=[])
        return self._obs.snapshot()

    # -- internals -------------------------------------------------------------

    def _handle(self, stream: str, schema: str | None = None) -> StreamHandle:
        node, module = self._streams[stream]
        return StreamHandle(stream, strata=self, node=node, module=module, schema=schema)

    def _check_mutable(self) -> None:
        if self._deployed:
            raise DeploymentError("pipeline already deployed; create a new Strata")

    def _check_new_stream(self, name: str) -> None:
        if name in self._streams:
            raise PipelineDefinitionError(f"stream {name!r} already defined")

    def _resolve_upstream(self, stream: str, consumer_module: str) -> str:
        """Producing node for ``stream``, bridging modules via pub/sub.

        In ``pubsub`` connector mode, a stream crossing a module boundary
        (raw -> monitor, monitor -> aggregator, any -> expert consumes
        directly) is routed through a broker topic: the producing branch
        ends in a writer sink and a reader source re-injects the stream
        into the consuming module.
        """
        try:
            node, module = self._streams[stream]
        except KeyError:
            raise UnknownStreamError(
                f"stream {stream!r} is not produced by any API call"
            ) from None
        crossing = module != consumer_module and consumer_module != MODULE_EXPERT
        if self._connector_mode != "pubsub" or not crossing:
            return node
        bridged = f"bridge:{stream}:{consumer_module}"
        if (bridged, consumer_module) in self._streams.values():
            return bridged
        topic = topic_for_stream(stream)
        writer = PubSubWriterSink(f"writer:{stream}", self._broker, topic)
        # Bridge readers are always barrier-capable: checkpointing a pubsub
        # topology must capture the reader's broker offsets, and the wrap
        # costs nothing when no checkpointer is attached.
        reader = CheckpointableSource(
            PubSubReaderSource(f"reader:{stream}", self._broker, topic)
        )
        self._query.add_sink(f"sink:{writer.name}", writer, [node])
        self._query.add_source(bridged, reader)
        self._streams[f"{stream}@{consumer_module}"] = (bridged, consumer_module)
        return bridged


# Paper-parity aliases (addSource, detectEvent, correlateEvents): installed
# as the same function objects, so identity checks and overrides stay exact.
install_camelcase_aliases(Strata, ("add_source", "detect_event", "correlate_events"))
