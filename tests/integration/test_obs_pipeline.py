"""Observability end to end: live pipeline -> metrics file -> QoS alerts.

Drives ``examples/live_monitoring.py`` the way an operator would — with
``--metrics-out`` and an injected stalled layer — and asserts the issue's
acceptance criteria: the JSONL snapshot carries per-operator queue-depth
and latency metrics, and the QoS watchdog flags the >deadline layer.

Watching must not change how the pipeline executes (ISSUE 12): with every
layer traced, the fused chain still runs block-to-block, each layer's
journey is one span per node per run, and the results equal an unobserved
run's.
"""

import importlib.util
from pathlib import Path

from repro.cli import _render_top
from repro.core import (
    DeployConfig,
    Strata,
    UseCaseConfig,
    build_use_case,
    calibrate_job,
    specimen_regions_px,
)
from repro.obs import ObsConfig, read_jsonl
from tests.conftest import TEST_IMAGE_PX
from tests.recovery.test_crash_recovery import signature

_EXAMPLE = Path(__file__).parents[2] / "examples" / "live_monitoring.py"


def _load_example():
    spec = importlib.util.spec_from_file_location("live_monitoring", _EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_live_monitoring_metrics_and_qos_alert(tmp_path, capsys):
    example = _load_example()
    out = tmp_path / "metrics.jsonl"
    rc = example.main([
        "--image-px", "120",
        "--layers", "12",
        "--time-scale", "0.002",
        "--stall-layer", "6",
        "--stall-seconds", "4.5",
        "--metrics-out", str(out),
    ])
    assert rc == 0

    snapshots = read_jsonl(str(out))
    assert len(snapshots) == 1
    snap = snapshots[0]

    # per-operator metrics: every scheduler node reports tuple counts
    operators = {s.label("operator") for s in snap.filter("spe_tuples_in_total")}
    assert any(op and op.startswith("source:") for op in operators)
    assert any(op and op.startswith("sink:") for op in operators)

    # per-queue metrics: depth and high-watermark for every stream
    depths = snap.filter("spe_queue_depth").samples
    assert depths, "no queue depth samples in the snapshot"
    assert all(s.label("stream") for s in depths)
    hwms = snap.filter("spe_queue_high_watermark").samples
    assert {s.label("stream") for s in hwms} == {s.label("stream") for s in depths}

    # end-to-end latency summary at the sink
    stats = {s.label("stat") for s in snap.filter("strata_sink_latency_seconds")}
    assert {"median", "p95", "p99", "max"} <= stats

    # the injected >3s layer was flagged by the watchdog
    assert snap.value("strata_qos_violations_total") >= 1
    assert snap.value("strata_qos_layers_violated") == 1
    assert snap.value("strata_qos_worst_latency_seconds") >= 4.5

    captured = capsys.readouterr()
    assert "QoS violation" in captured.out
    assert "layer=6" in captured.out


def test_live_monitoring_clean_run_has_no_alerts(tmp_path):
    example = _load_example()
    out = tmp_path / "metrics.jsonl"
    rc = example.main([
        "--image-px", "120",
        "--layers", "8",
        "--time-scale", "0.002",
        "--metrics-out", str(out),
    ])
    assert rc == 0
    snap = read_jsonl(str(out))[0]
    assert snap.value("strata_qos_violations_total") == 0
    assert snap.value("strata_qos_layers_violated") == 0


def _deploy_alg1(obs, layer_records, reference_images, test_job):
    strata = Strata(engine_mode="threaded", obs=obs)
    config = UseCaseConfig(image_px=TEST_IMAGE_PX, cell_edge_px=5, window_layers=4)
    calibrate_job(
        strata.kv, test_job.job_id, reference_images, config.cell_edge_px,
        regions=specimen_regions_px(test_job.specimens, TEST_IMAGE_PX),
    )
    pipeline = build_use_case(
        iter(layer_records), iter(layer_records), config, strata=strata
    )
    strata.deploy(DeployConfig(plan=True))
    return strata, pipeline


def test_fully_traced_pipeline_still_runs_blocks(
    layer_records, reference_images, test_job
):
    _, plain = _deploy_alg1(None, layer_records, reference_images, test_job)
    strata, observed = _deploy_alg1(
        ObsConfig(trace_sample_every=1), layer_records, reference_images, test_job
    )
    # (c) observing changes nothing the expert sees
    assert signature(observed.sink.results) == signature(plain.sink.results)

    # (a) the fused chain executed array-at-a-time under the tracer
    snap = strata.metrics()
    chains = [
        s.label("operator")
        for s in snap.filter("spe_operator_mode").samples
        if s.label("mode") == "vectorized"
    ]
    assert len(chains) == 1 and chains[0].startswith("fused[")
    blocks = {
        s.label("operator"): s.value for s in snap.filter("spe_blocks_in_total").samples
    }
    assert blocks[chains[0]] > 0
    rows = {
        s.label("operator"): s.value
        for s in snap.filter("spe_block_rows_in_total").samples
    }
    # a block takes a layer's specimen rows at once, and top shows how many
    per_block = rows[chains[0]] / blocks[chains[0]]
    assert per_block > 1
    assert f"vectorized {per_block:.0f}/blk" in _render_top(snap)

    # (b) each layer's journey: source -> fuse -> fused chain -> sink, in
    # order, one span per node per run. fuse carries the OT side's trace id
    # on; the parameter side's trace ends at the join.
    results_per_layer = {}
    for t in observed.sink.results:
        results_per_layer[t.layer] = results_per_layer.get(t.layer, 0) + 1
    journeys = [
        trace for trace in strata.obs.tracer.traces() if len(trace.spans) > 2
    ]
    assert len(journeys) == len(layer_records)
    for trace in journeys:
        source, fuse, chain, *sinks = trace.spans
        assert (source.kind, fuse.node, chain.node) == ("source", "fuse:OT&pp", chains[0])
        assert sinks and all(s.kind == "sink" for s in sinks)
        # the chain saw this layer as one tuple of one run; the sink saw its
        # results in as many runs as the edge batches they arrived in
        assert (fuse.tuples, chain.tuples) == (1, 1)
        assert sum(s.tuples for s in sinks) == results_per_layer[chain.layer]
        starts = [s.wall_time for s in trace.spans]
        assert starts == sorted(starts)
