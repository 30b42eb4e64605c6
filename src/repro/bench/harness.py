"""Experiment runners regenerating the paper's evaluation.

Latency experiments (Figures 5 and 6) measure "the latency with which
up-to-date results are delivered upon the reception of one OT image" on an
otherwise idle pipeline: a *lockstep* source feeds one image, waits until
the Event Aggregator has reported on every specimen of that layer, then
feeds the next. Per-layer latency is the time from the image's arrival to
the last of its results.

Throughput experiments (Figure 7) replay images "as fast as possible" at a
controlled offered rate and record the sustained cell-processing rate and
the average latency, exposing the saturation knee the paper shows.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Iterable

from ..am.dataset import LayerRecord
from ..core.api import Strata
from ..core.collectors import OTImageCollector
from ..core.deploy import DeployConfig
from ..core.usecase import (
    UseCaseConfig,
    build_use_case,
    calibrate_job,
    specimen_regions_px,
)
from ..spe.metrics import FiveNumberSummary, summarize
from ..spe.sink import Sink
from ..spe.source import RateLimitedSource, Source
from ..spe.tuples import StreamTuple
from .workload import EvaluationWorkload


class _LockstepCoordinator:
    """Blocks the OT source until the previous layer is fully reported."""

    def __init__(self, results_per_layer: int, timeout: float = 60.0) -> None:
        self._expected = results_per_layer
        self._timeout = timeout
        self._lock = threading.Lock()
        self._done = threading.Condition(self._lock)
        self._counts: dict[tuple[str, int], int] = {}

    def result_arrived(self, t: StreamTuple) -> None:
        """Sink callback: count one aggregator result for its layer."""
        key = (t.job, t.layer)
        with self._done:
            self._counts[key] = self._counts.get(key, 0) + 1
            if self._counts[key] >= self._expected:
                self._done.notify_all()

    def wait_for(self, job: str, layer: int) -> None:
        """Block until every specimen of (job, layer) has reported."""
        key = (job, layer)
        deadline = time.monotonic() + self._timeout
        with self._done:
            while self._counts.get(key, 0) < self._expected:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"layer {layer} of {job} produced "
                        f"{self._counts.get(key, 0)}/{self._expected} results "
                        f"within {self._timeout}s"
                    )
                self._done.wait(remaining)


class _LockstepOTSource(Source):
    """OT collector that emits layer N+1 only after layer N is reported."""

    def __init__(
        self,
        records: Iterable[LayerRecord],
        coordinator: _LockstepCoordinator,
        name: str = "ot-lockstep",
    ) -> None:
        super().__init__(name)
        self._records = records
        self._coordinator = coordinator

    def __iter__(self):
        previous: tuple[str, int] | None = None
        for record in self._records:
            if previous is not None:
                self._coordinator.wait_for(*previous)
            yield StreamTuple(
                tau=float(record.layer),
                job=record.job_id,
                layer=record.layer,
                payload={"image": record.image},
                ingest_time=time.monotonic(),
            )
            previous = (record.job_id, record.layer)
        if previous is not None:
            self._coordinator.wait_for(*previous)


class _LockstepSink(Sink):
    """Collecting sink that notifies the coordinator per result."""

    def __init__(self, coordinator: _LockstepCoordinator) -> None:
        super().__init__("expert-lockstep")
        self._coordinator = coordinator
        self.results: list[StreamTuple] = []
        self._lock = threading.Lock()

    def consume(self, t: StreamTuple) -> None:
        with self._lock:
            self.results.append(t)
        self._coordinator.result_arrived(t)


@dataclass
class LatencyRun:
    """Outcome of one lockstep latency measurement."""

    per_layer_latencies: list[float]
    all_latencies: list[float]
    results: int
    cells_evaluated: int
    wall_seconds: float
    config: UseCaseConfig
    #: mean events per correlate window (the work that grows with L)
    window_points_mean: float = 0.0

    @property
    def summary(self) -> FiveNumberSummary:
        return summarize(self.per_layer_latencies)

    def meets_qos(self, qos_seconds: float) -> bool:
        """True when no layer exceeded the QoS latency budget."""
        return max(self.per_layer_latencies) <= qos_seconds


def _prepare(workload: EvaluationWorkload, config: UseCaseConfig, strata: Strata) -> None:
    calibrate_job(
        strata.kv,
        workload.job.job_id,
        workload.reference_images(),
        config.cell_edge_px,
        regions=specimen_regions_px(workload.job.specimens, config.image_px),
    )


def run_latency_experiment(
    workload: EvaluationWorkload,
    config: UseCaseConfig,
    warmup_layers: int = 2,
    engine_mode: str = "threaded",
    optimize: DeployConfig | None = None,
    obs: object | None = None,
) -> LatencyRun:
    """Lockstep replay of the workload; per-layer latency samples.

    ``optimize`` is the :class:`~repro.core.deploy.DeployConfig` handed to
    :meth:`Strata.deploy` (``None``: the graph as declared); ``obs`` goes
    to :class:`Strata` (the obs-overhead benchmark ablates
    instrumentation).
    """
    records = workload.records
    strata = Strata(engine_mode=engine_mode, obs=obs)
    coordinator = _LockstepCoordinator(results_per_layer=len(workload.job.specimens))
    sink = _LockstepSink(coordinator)
    ot_source = _LockstepOTSource(iter(records), coordinator)
    pipeline = build_use_case(
        iter(records),
        iter(records),
        config,
        strata=strata,
        sink=sink,
        ot_source=ot_source,
    )
    _prepare(workload, config, strata)
    started = time.monotonic()
    report = strata.deploy(optimize)
    wall = time.monotonic() - started
    per_layer = _per_layer_latency(sink.results, sink.latency.samples())
    # Drop warm-up layers: first images pay one-time costs (threshold
    # loads, allocator warmup) the steady state does not.
    skip = {r.layer for r in records[:warmup_layers]}
    kept = [
        latency
        for (job, layer), latency in per_layer.items()
        if layer not in skip
    ]
    return LatencyRun(
        per_layer_latencies=kept,
        all_latencies=sink.latency.samples(),
        results=report.results_delivered(),
        cells_evaluated=pipeline.cells_evaluated,
        wall_seconds=wall,
        config=config,
        window_points_mean=(
            sum(t.payload["num_events"] for t in sink.results) / len(sink.results)
            if sink.results
            else 0.0
        ),
    )


def _per_layer_latency(
    results: list[StreamTuple], latencies: list[float]
) -> dict[tuple[str, int], float]:
    """Latency of each layer = latency of its last delivered result."""
    per_layer: dict[tuple[str, int], float] = {}
    for t, latency in zip(results, latencies):
        key = (t.job, t.layer)
        per_layer[key] = max(per_layer.get(key, 0.0), latency)
    return per_layer


@dataclass
class ThroughputRun:
    """Outcome of one offered-rate throughput measurement."""

    offered_images_s: float
    achieved_images_s: float
    cells_per_second: float
    kcells_per_second: float
    mean_latency_s: float
    p99_latency_s: float
    images: int
    cells_evaluated: int
    wall_seconds: float
    config: UseCaseConfig = field(repr=False, default=None)  # type: ignore[arg-type]


def run_throughput_experiment(
    workload: EvaluationWorkload,
    config: UseCaseConfig,
    offered_images_s: float,
    total_images: int,
    optimize: DeployConfig | None = None,
    obs: object | None = None,
) -> ThroughputRun:
    """Replay ``total_images`` at ``offered_images_s``; measure saturation.

    ``optimize`` is the :class:`~repro.core.deploy.DeployConfig` handed to
    :meth:`Strata.deploy`, so the fig7 sweep can compare the compiled plan
    with the graph as declared; ``obs`` goes to :class:`Strata`, so the
    obs-overhead benchmark can ablate instrumentation.
    """
    strata = Strata(engine_mode="threaded", obs=obs)
    ot_records = list(workload.replay(total_images))
    pp_records = ot_records  # parameters replayed alongside, unpaced
    ot_source = RateLimitedSource(
        OTImageCollector(iter(ot_records)), rate=offered_images_s
    )
    pipeline = build_use_case(
        iter(ot_records),
        iter(pp_records),
        config,
        strata=strata,
        ot_source=ot_source,
    )
    _prepare(workload, config, strata)
    started = time.monotonic()
    report = strata.deploy(optimize)
    wall = time.monotonic() - started
    latencies = report.latency_samples()
    cells = pipeline.cells_evaluated
    mean_latency = sum(latencies) / len(latencies) if latencies else 0.0
    ordered = sorted(latencies)
    p99 = ordered[int(0.99 * (len(ordered) - 1))] if ordered else 0.0
    return ThroughputRun(
        offered_images_s=offered_images_s,
        achieved_images_s=total_images / wall,
        cells_per_second=cells / wall,
        kcells_per_second=cells / wall / 1000.0,
        mean_latency_s=mean_latency,
        p99_latency_s=p99,
        images=total_images,
        cells_evaluated=cells,
        wall_seconds=wall,
        config=config,
    )
