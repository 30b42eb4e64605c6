"""Sampled end-to-end tracing of individual tuple journeys.

Latency summaries say *that* the pipeline is slow; a trace says *where*.
The tracer stamps a trace ID into every Nth tuple at each source (the
decision is a counter comparison, so unsampled tuples cost one ``%``), and
every scheduler node that handles a stamped tuple — or any tuple derived
from it, since ``StreamTuple.derive`` carries the ID along — appends a
span: node name, wall-clock start, processing duration. Tracing is per
*run*: a node that takes a whole batch in one call appends one span per
distinct trace ID in it, with the number of that trace's tuples in the run
and its share of the run's duration, so watching a pipeline never changes
how it executes. One OT layer's journey through collector, fuse,
partition, detect and correlate is then reconstructable as an ordered span
list, the in-process equivalent of an OpenTelemetry trace for one recoat
gap.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable

from ..spe.tuples import StreamTuple

#: traces kept before the oldest is evicted
MAX_TRACES = 256


@dataclass(frozen=True)
class Span:
    """One node's work on one trace's tuples in one run."""

    trace_id: str
    node: str
    kind: str  # "source" | "operator" | "sink"
    wall_time: float  # when the work started
    duration_s: float
    layer: int | None = None
    specimen: str | None = None
    tuples: int = 1  # this trace's tuples in the run


@dataclass
class Trace:
    """All spans recorded for one trace ID, in arrival order."""

    trace_id: str
    spans: list[Span] = field(default_factory=list)

    @property
    def nodes(self) -> list[str]:
        return [s.node for s in self.spans]

    @property
    def total_duration_s(self) -> float:
        return sum(s.duration_s for s in self.spans)

    def elapsed_s(self) -> float:
        """Wall time from the first span's start to the last one's end."""
        if not self.spans:
            return 0.0
        first = min(s.wall_time for s in self.spans)
        last = max(s.wall_time + s.duration_s for s in self.spans)
        return last - first

    def format(self) -> str:
        lines = [f"trace {self.trace_id}: {len(self.spans)} spans, "
                 f"{self.elapsed_s() * 1e3:.2f} ms end-to-end"]
        for s in self.spans:
            lines.append(
                f"  {s.kind:<8} {s.node:<36} {s.duration_s * 1e3:9.3f} ms"
            )
        return "\n".join(lines)


class Tracer:
    """Bounded, sampling span recorder.

    ``sample_every=N`` stamps one tuple in N per source; ``MAX_TRACES``
    bounds memory by evicting the oldest complete trace (FIFO), so a
    multi-hour monitoring run keeps a constant-size window of recent
    journeys.
    """

    def __init__(self, sample_every: int = 64) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.sample_every = sample_every
        self._lock = threading.Lock()
        self._traces: OrderedDict[str, Trace] = OrderedDict()
        self._source_seq: dict[str, int] = {}
        self.sampled = 0

    # -- hot-path hooks (called by the schedulers) -------------------------

    def at_source(self, source_name: str, t: StreamTuple) -> None:
        """Sampling decision + stamp, called once per emitted tuple."""
        seq = self._source_seq.get(source_name, 0)
        self._source_seq[source_name] = seq + 1
        if seq % self.sample_every:
            return
        trace_id = f"{source_name}#{seq}"
        t.trace_id = trace_id
        self.sampled += 1
        self.record(trace_id, source_name, "source", 0.0, t)

    def record(
        self,
        trace_id: str,
        node: str,
        kind: str,
        duration_s: float,
        t: StreamTuple | None = None,
        started_wall: float | None = None,
    ) -> None:
        """Append one span to a trace (creating/evicting as needed).

        ``started_wall`` is the wall-clock time the work began; a caller
        that only timed the work gets "now minus the duration".
        """
        if started_wall is None:
            started_wall = time.time() - duration_s
        span = Span(
            trace_id=trace_id,
            node=node,
            kind=kind,
            wall_time=started_wall,
            duration_s=duration_s,
            layer=t.layer if t is not None else None,
            specimen=t.specimen if t is not None else None,
        )
        with self._lock:
            self._append(span)

    def record_run(
        self,
        node: str,
        kind: str,
        started_wall: float,
        duration_s: float,
        tuples: Iterable[StreamTuple],
    ) -> None:
        """Append one span per distinct trace ID among a run's tuples.

        The run was one call, so each trace is attributed the share of its
        duration its tuples make up; all spans land under one lock
        acquisition. Unsampled tuples cost one attribute read each.
        """
        seen: dict[str, list] = {}  # trace id -> [tuples, first tuple]
        total = 0
        for t in tuples:
            total += 1
            trace_id = t.trace_id
            if trace_id is None:
                continue
            entry = seen.get(trace_id)
            if entry is None:
                seen[trace_id] = [1, t]
            else:
                entry[0] += 1
        if not seen:
            return
        spans = [
            Span(
                trace_id=trace_id,
                node=node,
                kind=kind,
                wall_time=started_wall,
                duration_s=duration_s * count / total,
                layer=first.layer,
                specimen=first.specimen,
                tuples=count,
            )
            for trace_id, (count, first) in seen.items()
        ]
        with self._lock:
            for span in spans:
                self._append(span)

    def _append(self, span: Span) -> None:
        """Add a span to its trace; the caller holds the lock."""
        trace = self._traces.get(span.trace_id)
        if trace is None:
            trace = Trace(span.trace_id)
            self._traces[span.trace_id] = trace
            while len(self._traces) > MAX_TRACES:
                self._traces.popitem(last=False)
        trace.spans.append(span)

    # -- queries ------------------------------------------------------------

    def trace(self, trace_id: str) -> Trace | None:
        with self._lock:
            return self._traces.get(trace_id)

    def traces(self) -> list[Trace]:
        """Recorded traces, oldest first."""
        with self._lock:
            return list(self._traces.values())

    def trace_ids(self) -> list[str]:
        with self._lock:
            return list(self._traces)

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)
