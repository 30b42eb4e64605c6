"""Elastic controllers inside the distributed runtime.

Each stage worker runs its own controller against its private scheduler;
a worker restart mid-run replays its input topics and must stay invisible
in the final output even while controllers are rescaling replicas.
"""

import dataclasses
import threading
import time

import pytest

from repro.core import (
    DeployConfig,
    Strata,
    UseCaseConfig,
    build_use_case,
    calibrate_job,
    specimen_regions_px,
)
from repro.dist import DistConfig, DistCoordinator
from repro.elastic import ElasticConfig, ReplanConfig
from tests.conftest import TEST_IMAGE_PX

CELL_EDGE = 5

#: fast controller: decisions every 50 ms so short test runs exercise it
FAST = ElasticConfig(
    min_parallelism=1, max_parallelism=2, tick_s=0.05, cooldown_s=0.1,
)
#: the same controller also re-planning fused chains, on a hair trigger
FAST_REPLAN = dataclasses.replace(
    FAST, replan=ReplanConfig(cooldown_s=0.1, streak_ticks=1)
)


def build(layer_records, reference_images, test_job):
    config = UseCaseConfig(
        image_px=TEST_IMAGE_PX, cell_edge_px=CELL_EDGE, window_layers=4
    )
    strata = Strata(engine_mode="threaded", connector_mode="pubsub")
    calibrate_job(
        strata.kv, test_job.job_id, reference_images, CELL_EDGE,
        regions=specimen_regions_px(test_job.specimens, TEST_IMAGE_PX),
    )
    pipeline = build_use_case(
        iter(layer_records), iter(layer_records), config, strata=strata
    )
    return strata, pipeline


def result_key(t):
    return (t.job, t.layer, t.specimen, t.payload["num_events"],
            t.payload["num_clusters"])


@pytest.fixture(scope="module")
def baseline(layer_records, reference_images, test_job):
    strata, pipeline = build(layer_records, reference_images, test_job)
    strata.deploy()
    return sorted(map(result_key, pipeline.sink.results))


@pytest.mark.parametrize("elastic", [FAST, FAST_REPLAN], ids=["rescale", "replan"])
def test_elastic_dist_deploy_equals_threaded(
    layer_records, reference_images, test_job, baseline, elastic
):
    strata, pipeline = build(layer_records, reference_images, test_job)
    report = strata.deploy(
        DeployConfig(plan=True, dist=DistConfig(workers=2), elastic=elastic)
    )
    assert sorted(map(result_key, pipeline.sink.results)) == baseline
    dist = report.extra["dist"]
    assert all(w["exitcode"] == 0 for w in dist["workers"].values())


def test_elastic_survives_worker_restart(
    layer_records, reference_images, test_job, baseline
):
    strata, pipeline = build(layer_records, reference_images, test_job)
    coordinator = DistCoordinator(
        strata.query, strata.broker, DistConfig(workers=2),
        plan=True, elastic=FAST,
    )
    coordinator.start()

    def chaos():
        time.sleep(0.05)
        coordinator.workers[0].kill()

    threading.Thread(target=chaos, daemon=True).start()
    report = coordinator.run()
    assert sorted(map(result_key, pipeline.sink.results)) == baseline
    dist = report.extra["dist"]
    if dist["restarts"]:
        assert dist["failure"] is None
        assert dist["workers"]["worker-0"]["incarnation"] >= 1
