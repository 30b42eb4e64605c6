"""Elastic adaptation under a QoS burst — time-to-recover and tail latency.

Replays the evaluation build at a paced offered rate while a stall
injector back-dates one mid-run layer past the 3 s recoat-gap deadline,
exactly as if an upstream stage had hung. The QoS watchdog fires, the
elastic controller's policy reacts (``qos_boost`` doubles the replica
count), and the run continues on the rescaled group.

Measured: p99 end-to-end latency before / during / after the burst
layer, wall-clock time from the first over-deadline delivery back to an
under-deadline one, and the controller's decision history. The divergence
gate re-runs the identical records on a static parallelism=1 deployment
and requires byte-identical result identities.

Acceptance (ISSUE 5): post-rescale p99 stays under the 3 s recoat gap and
the rescale loses, duplicates, and reorders nothing. Results land in
``BENCH_elastic.json`` at the repository root so CI can archive them.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Iterator

from repro.bench import format_table
from repro.core import (
    DeployConfig,
    Strata,
    UseCaseConfig,
    build_use_case,
    calibrate_job,
    specimen_regions_px,
)
from repro.core.collectors import OTImageCollector, PrintingParameterCollector
from repro.elastic import ElasticConfig
from repro.obs import RECOAT_GAP_SECONDS
from repro.spe import CollectingSink, PlanConfig, StreamTuple
from repro.spe.source import RateLimitedSource, Source

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_elastic.json"

STALL_SECONDS = 4.0  # past the 3 s recoat gap
#: stalled layers per burst — the correlate window takes the *latest*
#: ingest time across its L layers, so a burst must span the window for
#: the full stall to surface in sink latency
BURST_LAYERS = 4


def _total_images() -> int:
    return int(os.environ.get("REPRO_BENCH_ELASTIC_IMAGES", 24))


def _offered_rate() -> float:
    return float(os.environ.get("REPRO_BENCH_ELASTIC_RATE", 8.0))


class StallInjector(Source):
    """Back-dates a burst of layers so sink latency shows a stall."""

    def __init__(self, inner: Source, layers: range, stall_s: float) -> None:
        super().__init__(inner.name)
        self._inner = inner
        self._layers = layers
        self._stall_s = stall_s

    def __iter__(self) -> Iterator[StreamTuple]:
        for t in self._inner:
            if t.layer in self._layers:
                t.ingest_time = time.monotonic() - self._stall_s
            yield t


class TimedSink(CollectingSink):
    """Collects results plus their delivery wall time and latency."""

    def __init__(self) -> None:
        super().__init__("expert-timed")
        self.deliveries: list[tuple[float, float, int]] = []

    def consume(self, t: StreamTuple) -> None:
        now = time.monotonic()
        self.deliveries.append((now, t.latency_from(now), t.layer))
        super().consume(t)


def result_key(t):
    return (t.job, t.layer, t.specimen, t.payload["num_events"],
            t.payload["num_clusters"])


def p99(samples: list[float]) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[int(0.99 * (len(ordered) - 1))]


def _deploy(profile, workload, burst, elastic):
    config = UseCaseConfig(
        image_px=profile.image_px,
        cell_edge_px=profile.scale_cell_edge(10),
        window_layers=4,
    )
    strata = Strata(engine_mode="threaded", obs=True)
    calibrate_job(
        strata.kv, workload.job.job_id, workload.reference_images(),
        config.cell_edge_px,
        regions=specimen_regions_px(workload.job.specimens, config.image_px),
    )
    records = list(workload.replay(_total_images()))
    ot_source = StallInjector(
        RateLimitedSource(
            OTImageCollector(iter(records)), rate=_offered_rate()
        ),
        burst, STALL_SECONDS,
    )
    pp_source = StallInjector(
        PrintingParameterCollector(iter(records)), burst, STALL_SECONDS
    )
    sink = TimedSink()
    build_use_case(
        iter(records), iter(records), config, strata=strata,
        sink=sink, ot_source=ot_source, pp_source=pp_source,
    )
    deploy_cfg = DeployConfig(
        plan=PlanConfig(parallelism=1), elastic=elastic
    )
    started = time.monotonic()
    report = strata.deploy(deploy_cfg)
    wall = time.monotonic() - started
    return sink, report, wall


def test_elastic_adaptation(benchmark, profile, workload):
    burst = range(_total_images() // 2, _total_images() // 2 + BURST_LAYERS)
    runs = {}

    def run_once():
        runs["elastic"] = _deploy(
            profile, workload, burst,
            ElasticConfig(
                min_parallelism=1, max_parallelism=4,
                tick_s=0.05, cooldown_s=0.25,
            ),
        )

    benchmark.pedantic(run_once, rounds=1, iterations=1)
    sink, report, wall = runs["elastic"]

    # -- divergence gate: identical records on a static deployment -----------
    static_sink, _, _ = _deploy(profile, workload, burst, None)
    elastic_ids = sorted(map(result_key, sink.results))
    static_ids = sorted(map(result_key, static_sink.results))
    divergence = sum(a != b for a, b in zip(elastic_ids, static_ids))
    divergence += abs(len(elastic_ids) - len(static_ids))
    assert divergence == 0, (
        f"elastic run diverged from the static run in {divergence} results"
    )

    # -- tail latency per phase ----------------------------------------------
    before = [lat for _, lat, layer in sink.deliveries if layer < burst.start]
    during = [lat for _, lat, layer in sink.deliveries if layer in burst]
    after = [lat for _, lat, layer in sink.deliveries if layer >= burst.stop]
    p99_before, p99_during, p99_after = p99(before), p99(during), p99(after)

    # -- time to recover: first over-deadline delivery back to under ---------
    deadline = RECOAT_GAP_SECONDS
    violated_at = next(
        (wall_t for wall_t, lat, _ in sink.deliveries if lat > deadline), None
    )
    recovered_at = None
    if violated_at is not None:
        recovered_at = next(
            (
                wall_t for wall_t, lat, _ in sink.deliveries
                if wall_t > violated_at and lat <= deadline
            ),
            None,
        )
    time_to_recover = (
        recovered_at - violated_at
        if violated_at is not None and recovered_at is not None
        else None
    )

    elastic_summary = report.extra.get("elastic", {})
    payload = {
        "profile": profile.name,
        "offered_images_s": _offered_rate(),
        "total_images": _total_images(),
        "burst_layers": [burst.start, burst.stop],
        "stall_seconds": STALL_SECONDS,
        "qos_deadline_s": deadline,
        "p99_before_s": p99_before,
        "p99_during_s": p99_during,
        "p99_after_s": p99_after,
        "time_to_recover_s": time_to_recover,
        "divergence": divergence,
        "results": len(sink.results),
        "wall_seconds": wall,
        "rescales_up": elastic_summary.get("rescales_up", 0),
        "rescales_down": elastic_summary.get("rescales_down", 0),
        "final_parallelism": elastic_summary.get("groups", {}),
        "last_rescale_seconds": elastic_summary.get("last_rescale_seconds", 0.0),
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    print("\n=== Elastic adaptation under a QoS burst ===")
    print(format_table(
        ["phase", "p99_latency_ms"],
        [
            ["before burst", round(p99_before * 1e3, 1)],
            ["during burst", round(p99_during * 1e3, 1)],
            ["after rescale", round(p99_after * 1e3, 1)],
        ],
    ))
    print(
        f"rescales: +{payload['rescales_up']}/-{payload['rescales_down']}, "
        f"time to recover: {time_to_recover}, -> {BENCH_JSON}"
    )

    # the burst itself must register: the injected stall crossed the deadline
    assert p99_during > deadline
    # the controller reacted to the violation while the query ran
    assert payload["rescales_up"] >= 1, "QoS burst did not trigger a rescale"
    # ISSUE 5 acceptance: post-rescale p99 back under the recoat gap
    assert p99_after < deadline, (
        f"post-rescale p99 {p99_after:.3f}s still over the {deadline}s QoS gap"
    )
