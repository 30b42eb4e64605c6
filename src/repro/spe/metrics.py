"""Latency and throughput instrumentation.

The paper evaluates STRATA on two metrics (§3, §5): *latency* — the time
from when all data leading to a result became available until the result is
produced — and *throughput* — tuples ingested per time unit. Sinks record
per-result latency samples; counters track throughput over the run.
"""

from __future__ import annotations

import bisect
import math
import random
import threading
import time
from dataclasses import dataclass

from .errors import MetricsError


@dataclass(frozen=True)
class FiveNumberSummary:
    """Boxplot statistics, matching the figures in the paper.

    Extended with the tail percentiles (p95/p99) that QoS analysis needs:
    the recoat-gap deadline is a guarantee about the *worst* results, which
    the inter-quartile box hides.
    """

    count: int
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float
    p95: float = math.nan
    p99: float = math.nan

    def as_row(self, scale: float = 1.0) -> dict[str, float]:
        """Render as a dict with values multiplied by ``scale``."""
        return {
            "count": self.count,
            "min": self.minimum * scale,
            "q1": self.q1 * scale,
            "median": self.median * scale,
            "q3": self.q3 * scale,
            "max": self.maximum * scale,
            "mean": self.mean * scale,
            "p95": self.p95 * scale,
            "p99": self.p99 * scale,
        }


def _quantile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation quantile over pre-sorted data."""
    if not sorted_values:
        raise MetricsError("cannot take a quantile of no samples")
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = q * (len(sorted_values) - 1)
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return sorted_values[low]
    frac = position - low
    value = sorted_values[low] * (1 - frac) + sorted_values[high] * frac
    # Interpolating can round outside the bracket for subnormal inputs
    # (e.g. 5e-324 * 0.5 rounds to 0.0); clamp to keep quantiles monotone.
    return min(max(value, sorted_values[low]), sorted_values[high])


def summarize(
    samples: list[float], observed_count: int | None = None
) -> FiveNumberSummary:
    """Five-number summary plus mean and tail percentiles of a sample list.

    ``observed_count`` overrides the reported ``count`` when ``samples`` is
    a reservoir standing in for a larger population (statistics come from
    the reservoir, the count from the full stream of observations).
    """
    if not samples:
        raise MetricsError("cannot summarize zero samples")
    ordered = sorted(samples)
    return FiveNumberSummary(
        count=observed_count if observed_count is not None else len(ordered),
        minimum=ordered[0],
        q1=_quantile(ordered, 0.25),
        median=_quantile(ordered, 0.5),
        q3=_quantile(ordered, 0.75),
        maximum=ordered[-1],
        mean=sum(ordered) / len(ordered),
        p95=_quantile(ordered, 0.95),
        p99=_quantile(ordered, 0.99),
    )


class LatencyRecorder:
    """Thread-safe collector of latency samples (seconds).

    With ``capacity=None`` (the default) every sample is kept — right for
    finite replays and tests. A bounded ``capacity`` switches to reservoir
    sampling (Vitter's Algorithm R): memory stays constant over multi-hour
    monitoring runs while the reservoir remains a uniform random sample of
    everything observed; ``len()`` and summaries still report the *total*
    number of observations.
    """

    def __init__(self, capacity: int | None = None, seed: int = 0x5157) -> None:
        if capacity is not None and capacity < 1:
            raise MetricsError("latency reservoir capacity must be positive")
        self._samples: list[float] = []
        self._capacity = capacity
        self._count = 0
        self._rng = random.Random(seed) if capacity is not None else None
        self._lock = threading.Lock()

    @property
    def capacity(self) -> int | None:
        return self._capacity

    def record(self, latency_seconds: float) -> None:
        """Record one latency sample (reservoir-sampled when bounded)."""
        with self._lock:
            self._count += 1
            if self._capacity is None or len(self._samples) < self._capacity:
                self._samples.append(latency_seconds)
                return
            slot = self._rng.randrange(self._count)
            if slot < self._capacity:
                self._samples[slot] = latency_seconds

    def samples(self) -> list[float]:
        """Copy of the retained samples (all of them when unbounded)."""
        with self._lock:
            return list(self._samples)

    def clear(self) -> None:
        """Drop all samples."""
        with self._lock:
            self._samples.clear()
            self._count = 0

    def summary(self) -> FiveNumberSummary:
        """Five-number summary of the samples recorded so far."""
        with self._lock:
            return summarize(list(self._samples), observed_count=self._count)

    def snapshot(self) -> list[float] | dict[str, object]:
        """Checkpointable form: a plain list when unbounded (kept for
        manifest compatibility), a dict carrying the true observation count
        when reservoir-sampled."""
        with self._lock:
            if self._capacity is None:
                return list(self._samples)
            return {"count": self._count, "samples": list(self._samples)}

    def restore(self, state: list[float] | dict[str, object]) -> None:
        """Re-install a snapshot (either checkpointable form)."""
        with self._lock:
            if isinstance(state, dict):
                samples = [float(s) for s in state["samples"]]
                count = int(state["count"])
            else:
                samples = [float(s) for s in state]
                count = len(samples)
            if self._capacity is not None and len(samples) > self._capacity:
                samples = samples[: self._capacity]
            self._samples = samples
            self._count = max(count, len(samples))

    def __len__(self) -> int:
        """Total observations recorded (not the retained sample count)."""
        with self._lock:
            return self._count


class ThroughputMeter:
    """Counts processed items against wall-clock time."""

    def __init__(self) -> None:
        self._count = 0
        self._lock = threading.Lock()
        self._started: float | None = None
        self._stopped: float | None = None

    def start(self) -> None:
        """Reset the counter and start the clock."""
        with self._lock:
            self._started = time.monotonic()
            self._stopped = None
            self._count = 0

    def add(self, n: int = 1) -> None:
        """Count ``n`` processed items."""
        with self._lock:
            if self._started is None:
                self._started = time.monotonic()
            self._count += n

    def stop(self) -> None:
        """Freeze the clock (rates use the frozen interval)."""
        with self._lock:
            self._stopped = time.monotonic()

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def elapsed(self) -> float:
        """Measured interval in seconds (0.0 if nothing was ever counted).

        While the meter is live (started, not stopped) this reads
        ``now - start``, so mid-run rates are meaningful without waiting
        for ``stop()``.
        """
        with self._lock:
            if self._started is None:
                return 0.0
            end = self._stopped if self._stopped is not None else time.monotonic()
            return max(end - self._started, 1e-9)

    def per_second(self) -> float:
        """Items per second over the measured interval (0.0 when idle)."""
        elapsed = self.elapsed()
        if elapsed == 0.0:
            return 0.0
        return self.count / elapsed


class OperatorStats:
    """Per-operator counters surfaced by the engine's metrics report.

    All fields are plain attributes updated by exactly one executor thread
    (each scheduler node owns its stats object), so the hot path never
    takes a lock; the observability registry reads them racily at scrape
    time, which is fine for monotone counters.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.tuples_in = 0
        self.tuples_out = 0
        self.processing_seconds = 0.0
        # newest event time handled; NaN until the first tuple arrives
        self.last_tau = math.nan
        # optional lock-free processing-time histogram (repro.obs)
        self.timing_bounds: tuple[float, ...] | None = None
        self.timing_counts: list[int] | None = None
        self.timing_total = 0

    def enable_timing(self, bounds: tuple[float, ...]) -> None:
        """Turn on per-tuple timing buckets (idempotent per bound set)."""
        ordered = tuple(sorted(float(b) for b in bounds))
        if not ordered:
            raise MetricsError("timing histogram needs at least one bound")
        if self.timing_bounds != ordered:
            self.timing_bounds = ordered
            self.timing_counts = [0] * (len(ordered) + 1)  # +1: overflow
            self.timing_total = 0

    def record_time(self, seconds_each: float, n: int = 1) -> None:
        """Bucket ``n`` equal per-tuple durations (call only if enabled).

        The batched fast path covers a whole run with one operator call and
        attributes its wall time evenly, so the histogram stays comparable
        with per-tuple recording.
        """
        self.timing_counts[bisect.bisect_left(self.timing_bounds, seconds_each)] += n
        self.timing_total += n

    def as_dict(self) -> dict[str, float]:
        """Flat dict for report rendering."""
        return {
            "name": self.name,
            "in": self.tuples_in,
            "out": self.tuples_out,
            "busy_s": round(self.processing_seconds, 6),
        }
