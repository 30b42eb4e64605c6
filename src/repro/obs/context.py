"""Observability context: configuration and pipeline wiring.

One :class:`ObsContext` per :class:`~repro.core.api.Strata` instance owns
the metrics registry, the (optional) tracer and the (optional) QoS
watchdog, and knows how to attach them to a deployed pipeline:

* ``bind(nodes)`` runs after the plan compiler — it indexes every stream
  (queue depth / high-watermark gauges), enables member-level counters on
  fused operators, and installs the watchdog as every sink's observer;
* ``attach_executor(ex)`` runs from the schedulers as node executors are
  created — it enables the per-operator processing-time histogram and
  hands the executor the tracer.

Everything the registry exports is collected lazily at snapshot time from
the hot-path objects' own plain counters, so instrumentation overhead per
tuple is a few attribute updates (guarded by the obs-overhead benchmark,
``BENCH_obs.json``).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

from ..spe.metrics import OperatorStats
from ..spe.query import Node
from ..spe.stream import Stream
from .registry import (
    DEFAULT_TIME_BUCKETS,
    MetricsRegistry,
    MetricsSnapshot,
    Sample,
    histogram_samples,
)
from .tracer import Tracer
from .watchdog import RECOAT_GAP_SECONDS, QoSWatchdog


@dataclass(frozen=True)
class ObsConfig:
    """Knobs for the observability layer.

    ``qos_deadline_s``      per-layer latency deadline (None = no watchdog).
    ``trace_sample_every``  stamp one tuple in N per source (0 = no tracer).

    Every operator always keeps its processing-time histogram
    (``DEFAULT_TIME_BUCKETS``).
    """

    qos_deadline_s: float | None = RECOAT_GAP_SECONDS
    trace_sample_every: int = 64

    def __post_init__(self) -> None:
        if self.qos_deadline_s is not None and self.qos_deadline_s <= 0:
            raise ValueError("qos_deadline_s must be positive")
        if self.trace_sample_every < 0:
            raise ValueError("trace_sample_every must be >= 0")


class ObsContext:
    """Registry + tracer + watchdog, bound to at most one pipeline."""

    def __init__(self, config: ObsConfig | None = None) -> None:
        self.config = config if config is not None else ObsConfig()
        self.registry = MetricsRegistry()
        self.tracer: Tracer | None = (
            Tracer(self.config.trace_sample_every)
            if self.config.trace_sample_every
            else None
        )
        self.watchdog: QoSWatchdog | None = None
        if self.config.qos_deadline_s is not None:
            self.watchdog = QoSWatchdog(self.config.qos_deadline_s)
            self.watchdog.attach_metrics(self.registry)
        self._lock = threading.Lock()
        self._executors: list = []
        self._streams: list[Stream] = []
        self._sinks: list = []
        self._fused: list = []
        self._paced_sources: list = []
        self.registry.register_collector("spe-nodes", self._collect_nodes)
        self.registry.register_collector("spe-queues", self._collect_queues)
        self.registry.register_collector("spe-sinks", self._collect_sinks)
        self.registry.register_collector("spe-lag", self._collect_lag)
        for name, help_text in _HELP.items():
            self.registry.set_help(name, help_text)

    @classmethod
    def resolve(cls, obs: "ObsContext | ObsConfig | bool | None") -> "ObsContext | None":
        """Normalize the ``obs=`` argument of user-facing APIs."""
        if obs is None or obs is False:
            return None
        if obs is True:
            return cls()
        if isinstance(obs, ObsConfig):
            return cls(obs)
        if isinstance(obs, cls):
            return obs
        raise TypeError(f"obs must be bool, None, ObsConfig or ObsContext, got {obs!r}")

    # -- pipeline wiring ----------------------------------------------------

    def bind(self, nodes: list[Node]) -> None:
        """Index a compiled node graph (called by the engine pre-run)."""
        self._index(nodes, executors=[])

    def rebind(self, nodes: list[Node], retired: tuple | list = ()) -> None:
        """Re-index the graph after an elastic rescale splices nodes.

        Unlike :meth:`bind`, the executor registry survives: executors for
        nodes that kept running must keep exporting their counters, while
        the drained replicas in ``retired`` stop being sampled. The new
        replicas' executors arrive through :meth:`attach_executor` as the
        scheduler launches them.
        """
        dropped = set(map(id, retired))
        with self._lock:
            kept = [ex for ex in self._executors if id(ex) not in dropped]
        self._index(nodes, executors=kept)

    def _index(self, nodes: list[Node], executors: list) -> None:
        streams: dict[int, Stream] = {}
        sinks = []
        fused = []
        paced = []
        for node in nodes:
            for stream in node.inputs:
                streams[id(stream)] = stream
            for stream in node.outputs:
                streams[id(stream)] = stream
            if node.kind == "sink":
                sinks.append(node.sink)
                if self.watchdog is not None:
                    node.sink.observer = self._observe_result
            elif node.kind == "source" and hasattr(node.source, "lag_s"):
                paced.append(node.source)
            elif node.kind == "operator" and hasattr(node.operator, "enable_member_stats"):
                node.operator.enable_member_stats()
                fused.append(node.operator)
        with self._lock:
            self._streams = list(streams.values())
            self._sinks = sinks
            self._fused = fused
            self._paced_sources = paced
            self._executors = executors

    def attach_executor(self, executor) -> None:
        """Register one node executor (called by the schedulers)."""
        executor.stats.enable_timing(DEFAULT_TIME_BUCKETS)
        with self._lock:
            self._executors.append(executor)

    def _observe_result(self, sink, t, latency_s: float) -> None:
        self.watchdog.observe(t, latency_s, sink.name)

    # -- snapshotting -------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        return self.registry.snapshot()

    def _collect_nodes(self):
        with self._lock:
            executors = list(self._executors)
        samples: list[Sample] = []
        for ex in executors:
            stats: OperatorStats = ex.stats
            kind = ex.node.kind
            labels = (("kind", kind), ("operator", stats.name))
            samples.append(Sample("spe_tuples_in_total", labels, stats.tuples_in, "counter"))
            samples.append(Sample("spe_tuples_out_total", labels, stats.tuples_out, "counter"))
            samples.append(
                Sample("spe_busy_seconds_total", labels, stats.processing_seconds, "counter")
            )
            if stats.timing_counts is not None and stats.timing_total:
                samples.extend(
                    histogram_samples(
                        "spe_processing_seconds",
                        labels,
                        list(stats.timing_bounds),
                        stats.timing_counts,
                        stats.processing_seconds,
                        stats.timing_total,
                    )
                )
            if not math.isnan(stats.last_tau):
                samples.append(Sample("spe_last_tau", labels, stats.last_tau))
            if kind == "operator":
                op = ex.node.operator
                mode = getattr(op, "execution_mode", "scalar")
                samples.append(
                    Sample("spe_operator_mode", labels + (("mode", mode),), 1.0)
                )
                blocks_in = getattr(op, "blocks_in", 0)
                if blocks_in:
                    samples.append(
                        Sample("spe_blocks_in_total", labels, blocks_in, "counter")
                    )
                    samples.append(
                        Sample(
                            "spe_block_rows_in_total", labels,
                            op.block_rows_in, "counter",
                        )
                    )
                extra = op.stats_extra()
                for key, value in extra.items():
                    samples.append(
                        Sample(f"spe_operator_{key}", labels, float(value), "counter")
                    )
        with self._lock:
            fused = list(self._fused)
        for op in fused:
            counts = op.member_stats()
            if counts is None:
                continue
            for member, (tuples_in, tuples_out) in counts.items():
                labels = (("fused_into", op.name), ("kind", "operator"), ("operator", member))
                samples.append(Sample("spe_tuples_in_total", labels, tuples_in, "counter"))
                samples.append(Sample("spe_tuples_out_total", labels, tuples_out, "counter"))
        return samples

    def _collect_queues(self):
        with self._lock:
            streams = list(self._streams)
        samples: list[Sample] = []
        for stream in streams:
            labels = (("stream", stream.name),)
            samples.append(Sample("spe_queue_depth", labels, len(stream)))
            samples.append(
                Sample("spe_queue_high_watermark", labels, stream.high_watermark)
            )
            samples.append(Sample("spe_queue_capacity", labels, stream.capacity))
            samples.append(
                Sample("spe_queue_produced_total", labels, stream.produced, "counter")
            )
            samples.append(
                Sample("spe_queue_consumed_total", labels, stream.consumed, "counter")
            )
        return samples

    def _collect_sinks(self):
        with self._lock:
            sinks = list(self._sinks)
        samples: list[Sample] = []
        for sink in sinks:
            labels = (("sink", sink.name),)
            count = len(sink.latency)
            samples.append(Sample("strata_sink_results_total", labels, count, "counter"))
            samples.append(
                Sample(
                    "strata_sink_throughput_per_second", labels,
                    sink.throughput.per_second(),
                )
            )
            if count:
                summary = sink.latency.summary()
                for stat, value in (
                    ("median", summary.median),
                    ("p95", summary.p95),
                    ("p99", summary.p99),
                    ("max", summary.maximum),
                ):
                    samples.append(
                        Sample(
                            "strata_sink_latency_seconds",
                            labels + (("stat", stat),),
                            value,
                        )
                    )
        return samples

    def _collect_lag(self):
        """Watermark lag: newest event time ingested vs newest delivered."""
        with self._lock:
            executors = list(self._executors)
            paced = list(self._paced_sources)
        samples = [
            Sample(
                "strata_source_lag_seconds",
                (("source", source.name),),
                source.lag_s,
            )
            for source in paced
        ]
        source_tau = [
            ex.stats.last_tau
            for ex in executors
            if ex.node.kind == "source" and not math.isnan(ex.stats.last_tau)
        ]
        sink_tau = [
            ex.stats.last_tau
            for ex in executors
            if ex.node.kind == "sink" and not math.isnan(ex.stats.last_tau)
        ]
        if not source_tau:
            return samples
        samples.append(
            Sample("strata_watermark_tau", (("edge", "sources"),), max(source_tau))
        )
        if sink_tau:
            samples.append(
                Sample("strata_watermark_tau", (("edge", "sinks"),), min(sink_tau))
            )
            samples.append(
                Sample("strata_watermark_lag", (), max(source_tau) - min(sink_tau))
            )
        return samples


_HELP = {
    "spe_tuples_in_total": "tuples consumed per scheduler node",
    "spe_tuples_out_total": "tuples emitted per scheduler node",
    "spe_busy_seconds_total": "time spent processing tuples per node",
    "spe_processing_seconds": "per-tuple processing time distribution",
    "spe_operator_mode": "execution mode per operator (scalar or vectorized)",
    "spe_blocks_in_total": "columnar blocks formed by a vectorized operator",
    "spe_block_rows_in_total": "rows entering columnar blocks",
    "spe_last_tau": "newest event time (tau) seen by a node",
    "spe_queue_depth": "tuples currently queued on a stream",
    "spe_queue_high_watermark": "max queue depth observed on a stream",
    "spe_queue_capacity": "configured stream capacity",
    "spe_queue_produced_total": "tuples ever enqueued on a stream",
    "spe_queue_consumed_total": "tuples ever dequeued from a stream",
    "strata_sink_results_total": "results delivered to a sink",
    "strata_sink_throughput_per_second": "sink delivery rate over the run",
    "strata_sink_latency_seconds": "end-to-end latency summary per sink",
    "strata_source_lag_seconds": "how far a paced source trails its schedule",
    "strata_watermark_tau": "event-time frontier at sources vs sinks",
    "strata_watermark_lag": "event-time distance between ingest and delivery",
    "elastic_parallelism": "current replica count per elastic group",
    "elastic_rescales_total": "rescale operations executed, by direction",
    "elastic_last_rescale_seconds": "duration of the newest rescale drain-splice",
    "elastic_chain_mode": "shape of an adaptable chain (fused, unfused, vectorized)",
    "elastic_last_adaptation": "newest re-planning action applied per chain",
    "elastic_replan_actions_total": "re-planning actions applied, by action kind",
    "elastic_replan_last_action_seconds": "duration of the newest re-planning action",
}
