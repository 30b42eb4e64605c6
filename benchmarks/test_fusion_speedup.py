"""Plan-compiler speedup — fig7-style throughput, plan off against plan on.

Replays the evaluation build "as fast as possible" (offered rate far above
capacity) through the Alg. 1 pipeline at a fine cell size, where per-cell
tuple transport — queue locks, condvar wake-ups, thread hops — dominates
the analytics. Three deployments: the graph as declared (``baseline``, the
paper's one-thread-per-operator execution model), the default compiled
plan, and the default plan with keyed replication on top.

Acceptance: the default plan sustains at least 10x the baseline's
kcells/s and delivers the identical result multiset (divergence 0).
Results land in ``BENCH_fusion.json`` at the repository root so CI can
archive them. What the retired plan switches (fusion / batching /
vectorize off) measured before they went is recorded in EXPERIMENTS.md
E19.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.bench import EvaluationWorkload, format_table, run_throughput_experiment
from repro.core import DeployConfig, UseCaseConfig
from repro.spe import PlanConfig

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_fusion.json"

#: offered OT images/s — far above capacity, so runs measure saturation.
#: The vectorized plan sustains thousands of images/s, so the offered rate
#: must sit well above that for every variant to stay capacity-bound.
OFFERED_RATE = 2048.0

VARIANTS: dict[str, PlanConfig | None] = {
    "baseline": None,
    "default": PlanConfig(),
    "default+replication": PlanConfig(parallelism=4),
}

_results: dict[str, object] = {}


def _total_images() -> int:
    # 48 images keep one-time costs (thread spawn, first-layer threshold
    # loads) under a tenth of the vectorized variant's wall time, so the
    # speedup ratios measure steady-state throughput, not startup.
    return int(os.environ.get("REPRO_BENCH_FUSION_IMAGES", 48))


def _rounds() -> int:
    return int(os.environ.get("REPRO_BENCH_FUSION_ROUNDS", 2))


@pytest.fixture(scope="module")
def transport_workload(profile):
    """Evaluation build with sparse defects: transport-bound by design.

    The comparison measures *edge transport* (queue locks, condvar
    wake-ups, thread hops), so the workload keeps the DBSCAN correlation
    step off the critical path — dense defect clusters would bury the
    transport signal under analytics compute common to every variant.
    """
    return EvaluationWorkload(
        image_px=profile.image_px,
        layers=profile.layers,
        seed=7,
        defect_rate_per_stack=0.02,
    )


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_fusion_speedup_variant(benchmark, profile, transport_workload, variant):
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
            optimize=DeployConfig(plan=VARIANTS[variant]),
        )
        runs.append(run)
        return run

    benchmark.pedantic(run_once, rounds=_rounds(), iterations=1)
    # best-of-N: saturation throughput is a capacity, so scheduling noise
    # only ever subtracts from it
    run = max(runs, key=lambda r: r.achieved_images_s)
    _results[variant] = run
    benchmark.extra_info.update(
        variant=variant,
        achieved_images_s=round(run.achieved_images_s, 2),
        kcells_s=round(run.kcells_per_second, 1),
        mean_latency_ms=round(run.mean_latency_s * 1e3, 2),
    )


def test_fusion_speedup_report(benchmark, profile):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # report-only step
    assert len(_results) == len(VARIANTS)
    rows = [
        [
            name,
            round(run.achieved_images_s, 2),
            round(run.kcells_per_second, 1),
            round(run.mean_latency_s * 1e3, 1),
            round(run.p99_latency_s * 1e3, 1),
        ]
        for name, run in _results.items()
    ]
    print("\n=== Plan compiler: throughput & latency, plan off vs plan on ===")
    print(
        format_table(
            ["variant", "achieved_img_s", "kcells_s", "mean_lat_ms", "p99_lat_ms"],
            rows,
        )
    )

    baseline = _results["baseline"]
    default = _results["default"]
    speedup = default.kcells_per_second / baseline.kcells_per_second
    divergence = _plan_divergence(profile)
    payload = {
        "profile": profile.name,
        "offered_images_s": OFFERED_RATE,
        "total_images": _total_images(),
        "cell_edge_px": profile.scale_cell_edge(10),
        "variants": {
            name: {
                "plan": plan.describe() if plan is not None else "off",
                "achieved_images_s": run.achieved_images_s,
                "kcells_per_second": run.kcells_per_second,
                "mean_latency_s": run.mean_latency_s,
                "p99_latency_s": run.p99_latency_s,
                "cells_evaluated": run.cells_evaluated,
                "wall_seconds": run.wall_seconds,
            }
            for (name, plan), run in zip(VARIANTS.items(), _results.values())
        },
        "default_speedup": speedup,
        "divergence": divergence,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"speedup (default plan over baseline): {speedup:.2f}x, "
        f"divergence: {divergence} -> {BENCH_JSON}"
    )

    # every variant evaluates the identical workload
    assert all(
        run.cells_evaluated == baseline.cells_evaluated for run in _results.values()
    )
    assert speedup >= 10.0, (
        f"the default plan reached only {speedup:.2f}x over the graph as declared"
    )
    assert divergence == 0, (
        f"the default plan diverged from the graph as declared on {divergence} results"
    )


def _plan_divergence(profile) -> int:
    """Count sink results where plan-on differs from plan-off.

    A short deterministic replay runs through the identical workload as
    declared and under the default plan; the result multisets must match
    exactly (the merge order of specimens within a layer is
    scheduler-dependent, the *set* of reports is not).
    """
    from repro.spe.sink import CollectingSink

    workload = EvaluationWorkload(
        image_px=profile.image_px, layers=6, seed=11, defect_rate_per_stack=0.4
    )
    config = UseCaseConfig(
        image_px=profile.image_px,
        cell_edge_px=profile.scale_cell_edge(10),
        window_layers=3,
    )
    from repro.bench.harness import _prepare
    from repro.core.api import Strata
    from repro.core.usecase import build_use_case

    outputs = []
    for plan in (None, PlanConfig()):
        strata = Strata(engine_mode="threaded")
        sink = CollectingSink("expert")
        records = list(workload.replay(6))
        build_use_case(
            iter(records), iter(records), config, strata=strata, sink=sink
        )
        _prepare(workload, config, strata)
        strata.deploy(DeployConfig(plan=plan))
        outputs.append(
            sorted(repr(sorted(t.payload.items())) for t in sink.results)
        )
    declared, compiled = outputs
    if len(declared) != len(compiled):
        return abs(len(declared) - len(compiled))
    return sum(1 for a, b in zip(declared, compiled) if a != b)
