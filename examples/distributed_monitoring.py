#!/usr/bin/env python3
"""The OT thermal use case deployed across worker *processes*.

The paper decouples its modules with Kafka so detection methods can be
"continuously deployed, run, and decommissioned" independently. This
example takes the same pipeline that normally runs threaded in one
process and deploys it distributed: the built query DAG is cut at its
pub/sub connector edges into stages, the coordinator serves its broker
over TCP (``repro.net``), and each stage group runs in a forked worker
process wired through network topics (``repro.dist``). The terminal
stage — the one delivering results to the expert — stays in the
coordinator, so ``pipeline.sink.results`` fills exactly as in the
single-process run.

Worker crash recovery is built in: each worker commits a checkpoint of
its stages every 0.1 s, a killed worker is re-forked and resumes from
its last commit, and content-key dedup filters drop what it published
twice, so the final output is unchanged. Pass ``--chaos`` to see it
happen.

Run:  python examples/distributed_monitoring.py
      python examples/distributed_monitoring.py --chaos --workers 3
"""

from __future__ import annotations

import argparse
import threading
import time

from repro.am import BuildDataset, OTImageRenderer, make_job
from repro.core import (
    Strata,
    UseCaseConfig,
    build_use_case,
    calibrate_job,
    specimen_regions_px,
)
from repro.dist import DistConfig, DistCoordinator, render_stages

IMAGE_PX = 400
CELL_EDGE = 5
LAYERS = 12
WINDOW = 6


def build_pipeline(records, reference_images, job):
    config = UseCaseConfig(
        image_px=IMAGE_PX, cell_edge_px=CELL_EDGE, window_layers=WINDOW
    )
    strata = Strata(engine_mode="threaded", connector_mode="pubsub")
    # calibration thresholds are written *before* deploy: forked workers
    # inherit the kv store by memory and treat data-at-rest as read-only
    calibrate_job(
        strata.kv, job.job_id, reference_images, CELL_EDGE,
        regions=specimen_regions_px(job.specimens, IMAGE_PX),
    )
    pipeline = build_use_case(iter(records), iter(records), config, strata=strata)
    return strata, pipeline


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes for the remote stages")
    parser.add_argument("--chaos", action="store_true",
                        help="hard-kill one worker mid-run to show recovery")
    args = parser.parse_args()

    job = make_job("EOS-M290-dist", seed=7, defect_rate_per_stack=0.55)
    renderer = OTImageRenderer(image_px=IMAGE_PX, seed=7)
    records = list(BuildDataset(job, renderer).records(0, LAYERS))
    reference = make_job("reference", seed=1, defect_rate_per_stack=0.0)
    reference_images = [
        r.image for r in BuildDataset(reference, renderer).records(0, 3)
    ]

    strata, pipeline = build_pipeline(records, reference_images, job)
    coordinator = DistCoordinator(
        strata.query, strata.broker,
        DistConfig(workers=args.workers),
    )
    host, port = coordinator.start()
    print(f"broker serving at {host}:{port}")
    print(render_stages(coordinator.stages))
    print()

    if args.chaos:
        def chaos():
            time.sleep(0.1)
            victim = coordinator.workers[0]
            print(f"!! killing {victim.name} (pid {victim.pid})")
            victim.kill()

        threading.Thread(target=chaos, daemon=True).start()

    report = coordinator.run()

    dist = report.extra["dist"]
    print(f"done in {report.wall_seconds:.2f}s; "
          f"restarts={dist['restarts']}, "
          f"replayed duplicates suppressed locally="
          f"{dist['duplicates_suppressed_local']}")
    for name, status in dist["workers"].items():
        print(f"  {name}: stages={status['stages']} "
              f"incarnation={status['incarnation']} exit={status['exitcode']}")
    for name, snapshot in report.extra.get("worker_metrics", {}).items():
        tuples_out = sum(
            s.value for s in snapshot.samples if s.name == "spe_tuples_out_total"
        )
        print(f"  {name}: {int(tuples_out)} tuples processed")

    flagged = [t for t in pipeline.sink.results if t.payload["num_clusters"] > 0]
    print(f"results: {len(pipeline.sink.results)} verdicts, {len(flagged)} flagged")
    for t in flagged[-3:]:
        print(f"  layer {t.layer} specimen {t.specimen}: "
              f"{t.payload['num_clusters']} cluster(s), "
              f"{t.payload['num_events']} events")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
