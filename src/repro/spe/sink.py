"""Sinks: where query results leave the system.

Sinks deliver results to the expert (§2) and are also the measurement
point for end-to-end latency: each accepted tuple's ``ingest_time`` marks
when all of its contributing data was available, so the sink records
``now - ingest_time`` per result — the paper's latency definition (§3).
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod
from typing import Callable

from .metrics import LatencyRecorder, ThroughputMeter
from .tuples import StreamTuple


class Sink(ABC):
    """Base class for result consumers.

    ``latency_capacity`` bounds the latency-sample memory via reservoir
    sampling (see :class:`~repro.spe.metrics.LatencyRecorder`); ``None``
    keeps every sample, appropriate for finite replays.

    A sink that buffers what it consumes defines ``flush()``: the threaded
    scheduler calls it whenever the sink's input has nothing more ready,
    and at a checkpoint barrier before it takes the sink's snapshot — a
    committed epoch never covers a tuple the sink still holds.
    """

    def __init__(self, name: str, latency_capacity: int | None = None) -> None:
        self.name = name
        self.latency = LatencyRecorder(capacity=latency_capacity)
        self.throughput = ThroughputMeter()
        # optional (sink, tuple, latency_s) callback; repro.obs installs the
        # QoS watchdog here so every delivered result is deadline-checked
        self.observer: Callable[["Sink", StreamTuple, float], None] | None = None

    def accept(self, t: StreamTuple) -> None:
        """Record metrics, then hand the tuple to the concrete sink."""
        latency_s = t.latency_from(time.monotonic())
        self.latency.record(latency_s)
        self.throughput.add()
        if self.observer is not None:
            self.observer(self, t, latency_s)
        self.consume(t)

    @abstractmethod
    def consume(self, t: StreamTuple) -> None:
        """Deliver one result tuple."""

    def snapshot_state(self) -> dict[str, object] | None:
        """Checkpointable sink state; the base captures latency samples."""
        return {"latency": self.latency.snapshot()}

    def restore_state(self, state: dict[str, object]) -> None:
        self.latency.restore(state["latency"])

    def on_close(self) -> None:
        """Called when the query finished feeding this sink."""
        self.throughput.stop()


class CollectingSink(Sink):
    """Buffers every result for later inspection (tests, benches)."""

    def __init__(self, name: str = "collect", latency_capacity: int | None = None) -> None:
        super().__init__(name, latency_capacity=latency_capacity)
        self._results: list[StreamTuple] = []
        self._lock = threading.Lock()

    def consume(self, t: StreamTuple) -> None:
        with self._lock:
            self._results.append(t)

    @property
    def results(self) -> list[StreamTuple]:
        with self._lock:
            return list(self._results)

    def __len__(self) -> int:
        with self._lock:
            return len(self._results)

    def snapshot_state(self) -> dict[str, object]:
        base = super().snapshot_state() or {}
        with self._lock:
            base["results"] = list(self._results)
        return base

    def restore_state(self, state: dict[str, object]) -> None:
        super().restore_state(state)
        with self._lock:
            self._results = list(state["results"])


class CallbackSink(Sink):
    """Invokes a user callback per result (the 'expert' integration point)."""

    def __init__(
        self,
        name: str,
        fn: Callable[[StreamTuple], None],
        latency_capacity: int | None = None,
    ) -> None:
        super().__init__(name, latency_capacity=latency_capacity)
        self._fn = fn

    def consume(self, t: StreamTuple) -> None:
        self._fn(t)


class NullSink(Sink):
    """Discards results but still records metrics (pure benchmarking)."""

    def __init__(self, name: str = "null", latency_capacity: int | None = None) -> None:
        super().__init__(name, latency_capacity=latency_capacity)

    def consume(self, t: StreamTuple) -> None:
        return None
