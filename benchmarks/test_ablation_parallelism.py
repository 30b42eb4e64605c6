"""A6 ablation — detect-stage sharding under the GIL.

The paper's API methods compile to native operators precisely so that the
underlying SPE can run them "in a distributed, parallel, elastic fashion"
(§4): on the JVM, sharding detectEvent by (job, specimen) buys real
multi-core speedup. This reproduction implements the same sharding in
the plan compiler's replication pass (hash router + fused replica chains,
``PlanConfig(parallelism=N)``), and this ablation measures what it is
worth under CPython's GIL — the honest answer being "correctness yes,
CPU-parallel speedup no". The numbers document the substrate difference
rather than assert a win.
"""

from __future__ import annotations

import pytest

from repro.bench import format_table, run_throughput_experiment, save_json
from repro.core import DeployConfig, UseCaseConfig
from repro.spe import PlanConfig

PARALLELISM = [1, 2, 4]

_rows: list[list] = []


@pytest.mark.parametrize("workers", PARALLELISM)
def test_ablation_parallel_detect(benchmark, profile, workload, workers):
    config = UseCaseConfig(
        image_px=profile.image_px,
        cell_edge_px=profile.scale_cell_edge(10),
        window_layers=10,
    )
    run = benchmark.pedantic(
        lambda: run_throughput_experiment(
            workload, config, offered_images_s=1000.0,
            total_images=min(len(workload) * 2, 48),
            optimize=DeployConfig(plan=PlanConfig(parallelism=workers)),
        ),
        rounds=1,
        iterations=1,
    )
    _rows.append([
        workers,
        round(run.achieved_images_s, 2),
        round(run.kcells_per_second, 1),
        round(run.mean_latency_s * 1e3, 1),
    ])
    benchmark.extra_info.update(parallelism=workers, kcells_s=round(run.kcells_per_second, 1))
    assert run.images == min(len(workload) * 2, 48)
    assert run.cells_evaluated > 0


def test_ablation_parallelism_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert len(_rows) == len(PARALLELISM)
    print("\n=== Ablation A6: detect sharding (CPython GIL) ===")
    print(format_table(["parallelism", "img_s", "kcells_s", "mean_lat_ms"], _rows))
    print("(same sharded topology the paper's JVM engine parallelizes; under"
          "\n the GIL pure-Python shards serialize, so throughput stays flat —"
          "\n the speedups in Figures 5-7 come from the algorithmic knobs instead)")
    save_json(
        "ablation_parallelism",
        {str(row[0]): {"img_s": row[1], "kcells_s": row[2]} for row in _rows},
    )
    # correctness-oriented sanity: all variants processed the same load and
    # none collapsed (>= half the single-shard throughput)
    base = _rows[0][2]
    for row in _rows[1:]:
        assert row[2] > base * 0.4, "sharding must not wreck throughput"
