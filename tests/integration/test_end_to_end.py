"""End-to-end: the full Alg. 1 pipeline over the digital twin."""

import numpy as np
import pytest

from repro.core import (
    DeployConfig,
    Strata,
    UseCaseConfig,
    build_use_case,
    calibrate_job,
    specimen_regions_px,
)
from repro.spe import PlanConfig
from tests.conftest import TEST_IMAGE_PX

CELL_EDGE = 5  # 5 px at 250 px/plate = 5 mm cells


def run_pipeline(layer_records, reference_images, test_job, engine_mode="sync",
                 vectorized=False, window_layers=4, deploy=None):
    config = UseCaseConfig(
        image_px=TEST_IMAGE_PX,
        cell_edge_px=CELL_EDGE,
        window_layers=window_layers,
        vectorized=vectorized,
    )
    strata = Strata(engine_mode=engine_mode)
    calibrate_job(
        strata.kv, test_job.job_id, reference_images, CELL_EDGE,
        regions=specimen_regions_px(test_job.specimens, TEST_IMAGE_PX),
    )
    pipeline = build_use_case(
        iter(layer_records), iter(layer_records), config, strata=strata
    )
    report = strata.deploy(deploy)
    return pipeline, report


def result_key(t):
    return (t.job, t.layer, t.specimen, t.payload["num_events"], t.payload["num_clusters"])


def test_pipeline_reports_every_layer_specimen(layer_records, reference_images, test_job):
    pipeline, report = run_pipeline(layer_records, reference_images, test_job)
    results = pipeline.sink.results
    # one report per (layer, specimen)
    assert len(results) == len(layer_records) * 12
    layers = {t.layer for t in results}
    assert layers == set(range(len(layer_records)))
    specimens = {t.specimen for t in results}
    assert len(specimens) == 12


def test_pipeline_finds_seeded_defects(layer_records, reference_images, test_job):
    """Specimens with large seeded defects in the replayed layers must
    produce clusters; pristine specimens must stay mostly quiet."""
    pipeline, _ = run_pipeline(layer_records, reference_images, test_job)
    max_z = layer_records[-1].z_mm
    defective = {
        d.specimen_id
        for d in test_job.defects
        if d.first_z < max_z and d.radius_mm > 1.5
    }
    assert defective, "test setup: expected large early defects"
    clusters_by_specimen: dict[str, int] = {}
    for t in pipeline.sink.results:
        clusters_by_specimen[t.specimen] = (
            clusters_by_specimen.get(t.specimen, 0) + t.payload["num_clusters"]
        )
    for specimen in defective:
        assert clusters_by_specimen.get(specimen, 0) > 0, specimen


def test_clean_job_reports_almost_no_clusters(clean_job, renderer, reference_images):
    from repro.am import BuildDataset

    records = [BuildDataset(clean_job, renderer).layer_record(i) for i in range(6)]
    config = UseCaseConfig(image_px=TEST_IMAGE_PX, cell_edge_px=CELL_EDGE, window_layers=4)
    strata = Strata(engine_mode="sync")
    calibrate_job(
        strata.kv, clean_job.job_id, reference_images, CELL_EDGE,
        regions=specimen_regions_px(clean_job.specimens, TEST_IMAGE_PX),
    )
    pipeline = build_use_case(iter(records), iter(records), config, strata=strata)
    strata.deploy()
    total_clusters = sum(t.payload["num_clusters"] for t in pipeline.sink.results)
    assert total_clusters <= 2  # noise tail only


def test_sync_and_threaded_agree(layer_records, reference_images, test_job):
    sync_pipeline, _ = run_pipeline(layer_records, reference_images, test_job, "sync")
    threaded_pipeline, _ = run_pipeline(layer_records, reference_images, test_job, "threaded")
    assert sorted(map(result_key, sync_pipeline.sink.results)) == sorted(
        map(result_key, threaded_pipeline.sink.results)
    )


def test_scalar_and_vectorized_agree(layer_records, reference_images, test_job):
    scalar, _ = run_pipeline(layer_records, reference_images, test_job, vectorized=False)
    vector, _ = run_pipeline(layer_records, reference_images, test_job, vectorized=True)
    assert sorted(map(result_key, scalar.sink.results)) == sorted(
        map(result_key, vector.sink.results)
    )
    assert scalar.cells_evaluated == vector.cells_evaluated


def test_parallel_detect_agrees_with_serial(layer_records, reference_images, test_job):
    # both detect paths: the per-cell chain and the vectorized detect
    for vectorized in (False, True):
        serial, _ = run_pipeline(
            layer_records, reference_images, test_job, "threaded", vectorized
        )
        parallel, report = run_pipeline(
            layer_records, reference_images, test_job, "threaded", vectorized,
            deploy=DeployConfig(plan=PlanConfig(parallelism=4)),
        )
        replicas = [name for name in report.operator_stats if name.startswith("fused[")]
        assert len(replicas) == 4, sorted(report.operator_stats)
        assert sorted(map(result_key, serial.sink.results)) == sorted(
            map(result_key, parallel.sink.results)
        )


def test_window_layers_bounds_cluster_span(layer_records, reference_images, test_job):
    pipeline, _ = run_pipeline(
        layer_records, reference_images, test_job, window_layers=2
    )
    for t in pipeline.sink.results:
        for cluster in t.payload["clusters"]:
            first, last = cluster["layers"]
            assert last - first < 2  # no cluster can span beyond the window


def test_latency_recorded_per_result(layer_records, reference_images, test_job):
    pipeline, report = run_pipeline(layer_records, reference_images, test_job, "threaded")
    samples = report.latency_samples()
    assert len(samples) == len(pipeline.sink.results)
    assert all(0 <= s < 60 for s in samples)


def test_cells_evaluated_accounting(layer_records, reference_images, test_job):
    pipeline, _ = run_pipeline(layer_records, reference_images, test_job)
    # at 250 px / 250 mm, a 25x50 mm specimen is 25x50 px; cell edge 5
    # -> (50//5) * (25//5) = 50 cells per specimen per layer
    per_layer = 12 * (50 // CELL_EDGE) * (25 // CELL_EDGE)
    assert pipeline.cells_evaluated == per_layer * len(layer_records)
