#!/usr/bin/env python3
"""Monitor several PBF-LB machines with one STRATA deployment.

§3: "A manufacturing facility can count on many PBF-LB machines, each
sensing data at a different time granularity and producing varying data
volumes." Here three simulated machines run different jobs concurrently;
their layer streams merge into one pipeline, and STRATA's (job, specimen)
grouping keeps every build's analysis separate while the deployment's
plan shards the keyed stages 4-way for throughput.

Run:  python examples/multi_machine.py
"""

from __future__ import annotations

import threading

from repro.am import BuildDataset, OTImageRenderer, PBFLBMachine, make_job
from repro.core import (
    DeployConfig,
    LiveLayerFeed,
    Strata,
    UseCaseConfig,
    build_use_case,
    calibrate_job,
    specimen_regions_px,
)
from repro.spe import PlanConfig

IMAGE_PX = 400
CELL_EDGE_PX = 4
LAYERS_PER_JOB = 15

MACHINES = {
    "M290-A": dict(seed=7, defect_rate_per_stack=0.6),
    "M290-B": dict(seed=21, defect_rate_per_stack=0.2),
    "M290-C": dict(seed=33, defect_rate_per_stack=1.0),
}


def main() -> None:
    renderer = OTImageRenderer(image_px=IMAGE_PX, seed=3)
    jobs = {
        machine_id: make_job(f"job-{machine_id}", **params)
        for machine_id, params in MACHINES.items()
    }

    config = UseCaseConfig(
        image_px=IMAGE_PX,
        cell_edge_px=CELL_EDGE_PX,
        window_layers=8,
    )
    strata = Strata(engine_mode="threaded")
    reference = make_job("reference", seed=1, defect_rate_per_stack=0.0)
    reference_images = [
        r.image for r in BuildDataset(reference, renderer).records(0, 4)
    ]
    for job in jobs.values():
        calibrate_job(
            strata.kv, job.job_id, reference_images, CELL_EDGE_PX,
            regions=specimen_regions_px(job.specimens, IMAGE_PX),
        )

    # one merged feed: every machine pushes its completed layers here
    feed = LiveLayerFeed()
    pipeline = build_use_case(feed.records(), feed.records(), config, strata=strata)
    # shard the keyed stages by (job, specimen), 4 replicas each
    strata.start(DeployConfig(plan=PlanConfig(parallelism=4)))

    def run_machine(machine_id: str) -> None:
        machine = PBFLBMachine(machine_id=machine_id, renderer=renderer)
        machine.run(jobs[machine_id], on_layer=feed.push, max_layers=LAYERS_PER_JOB)

    threads = [
        threading.Thread(target=run_machine, args=(machine_id,), name=machine_id)
        for machine_id in MACHINES
    ]
    print(f"running {len(threads)} machines x {LAYERS_PER_JOB} layers ...")
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    feed.close()
    strata.wait(timeout=300)

    # per-job verdicts, exactly as a facility dashboard would aggregate them
    print(f"\n{'job':<14} {'reports':>8} {'events':>7} {'clusters':>9}")
    for machine_id, job in jobs.items():
        mine = [t for t in pipeline.sink.results if t.job == job.job_id]
        events = sum(t.payload["num_events"] for t in mine)
        clusters = sum(t.payload["num_clusters"] for t in mine)
        print(f"{job.job_id:<14} {len(mine):>8} {events:>7} {clusters:>9}")
    print("\n(cluster counts track each job's seeded defect rate: C > A > B)")


if __name__ == "__main__":
    main()
