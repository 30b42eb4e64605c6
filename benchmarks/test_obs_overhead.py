"""Observability overhead — instrumented vs bare throughput ablation.

The obs layer claims its per-tuple cost is a None check plus a few plain
attribute updates (counters read lazily at scrape time). This benchmark
holds it to that: the fusion workload replayed at saturation with the full
obs stack on — registry, processing-time histograms, sampled tracer, QoS
watchdog — must sustain at least 0.9x the throughput of the identical
uninstrumented run.

Results land in ``BENCH_obs.json`` at the repository root so CI can
archive them and fail the smoke-bench job on a regression.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.bench import EvaluationWorkload, format_table, run_throughput_experiment
from repro.core import DeployConfig, UseCaseConfig
from repro.obs import ObsConfig, ObsContext
from repro.spe import PlanConfig

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_obs.json"

#: offered OT images/s — far above capacity (a few hundred images/s now
#: that the block path stays on), so runs measure saturation
OFFERED_RATE = 4096.0

#: throughput with obs on must stay within this factor of obs off
MIN_RATIO = 0.9

#: the default plan of the fusion benchmark — the hot transport path
#: where per-tuple instrumentation overhead would show first. Observing
#: must leave the block path on (ISSUE 12): a drop back to the scalar
#: cascade under the tracer is a 10x, not a 10 %, loss
PLAN = PlanConfig()

VARIANTS: dict[str, object] = {
    "obs-off": None,
    "obs-on": "fresh-context",  # a new fully-armed ObsContext per run
}

_results: dict[str, object] = {}


def _total_images() -> int:
    # ~0.25 s per run at saturation: shorter runs put start-up jitter, not
    # instrumentation, into the ratio
    return int(os.environ.get("REPRO_BENCH_OBS_IMAGES", 96))


def _rounds() -> int:
    return int(os.environ.get("REPRO_BENCH_OBS_ROUNDS", 2))


def _obs_for(variant: str) -> ObsContext | None:
    if VARIANTS[variant] is None:
        return None
    # everything on: timing histograms, tracer, watchdog
    return ObsContext(ObsConfig(trace_sample_every=64))


@pytest.fixture(scope="module")
def transport_workload(profile):
    """Same transport-bound build as the fusion benchmark (sparse defects)."""
    return EvaluationWorkload(
        image_px=profile.image_px,
        layers=profile.layers,
        seed=7,
        defect_rate_per_stack=0.02,
    )


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_obs_overhead_variant(benchmark, profile, transport_workload, variant):
    config = UseCaseConfig(
        image_px=profile.image_px,
        cell_edge_px=profile.scale_cell_edge(10),  # fine cells: transport-bound
        window_layers=10,
    )
    runs: list = []

    def run_once():
        run = run_throughput_experiment(
            transport_workload,
            config,
            offered_images_s=OFFERED_RATE,
            total_images=_total_images(),
            optimize=DeployConfig(plan=PLAN),
            obs=_obs_for(variant),
        )
        runs.append(run)
        return run

    benchmark.pedantic(run_once, rounds=_rounds(), iterations=1)
    # best-of-N: saturation throughput is a capacity, noise only subtracts
    run = max(runs, key=lambda r: r.achieved_images_s)
    _results[variant] = run
    benchmark.extra_info.update(
        variant=variant,
        achieved_images_s=round(run.achieved_images_s, 2),
        kcells_s=round(run.kcells_per_second, 1),
        mean_latency_ms=round(run.mean_latency_s * 1e3, 2),
    )


def test_obs_overhead_report(benchmark, profile):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # report-only step
    assert len(_results) == len(VARIANTS)
    rows = [
        [
            name,
            round(run.achieved_images_s, 2),
            round(run.kcells_per_second, 1),
            round(run.mean_latency_s * 1e3, 1),
        ]
        for name, run in _results.items()
    ]
    print("\n=== Observability overhead: instrumented vs bare throughput ===")
    print(format_table(["variant", "achieved_img_s", "kcells_s", "mean_lat_ms"], rows))

    off = _results["obs-off"]
    on = _results["obs-on"]
    ratio = on.achieved_images_s / off.achieved_images_s
    payload = {
        "profile": profile.name,
        "offered_images_s": OFFERED_RATE,
        "total_images": _total_images(),
        "plan": PLAN.describe(),
        "variants": {
            name: {
                "achieved_images_s": run.achieved_images_s,
                "kcells_per_second": run.kcells_per_second,
                "mean_latency_s": run.mean_latency_s,
                "cells_evaluated": run.cells_evaluated,
                "wall_seconds": run.wall_seconds,
            }
            for name, run in _results.items()
        },
        "throughput_ratio_on_over_off": ratio,
        "min_ratio": MIN_RATIO,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"obs-on / obs-off throughput: {ratio:.3f}x -> {BENCH_JSON}")

    # both variants evaluate the identical workload
    assert on.cells_evaluated == off.cells_evaluated
    # ISSUE 3 acceptance: instrumentation costs at most 10% throughput
    assert ratio >= MIN_RATIO, (
        f"obs-on reached only {ratio:.3f}x of obs-off throughput "
        f"(floor {MIN_RATIO}x)"
    )
