"""Accuracy + throughput gates for the two ``repro.thermal`` workloads.

Four measurements, one JSON artifact (``BENCH_thermal.json``):

1. **Forecast accuracy** — the Kalman estimator's one-layer-ahead
   forecast against the synthetic build's hidden true temperature field.
   The gate is the point of the filter: forecast RMSE must beat the raw
   sensor noise floor (else a thermometer would do).
2. **Reconstruction accuracy** — recovered laser power/speed against the
   hidden *actual* (drifted) schedule; gated at a few percent relative.
3. **Throughput, plan off vs plan on** — the same forecast pipeline as
   declared (one thread per operator, tuple at a time) and under the
   default compiled plan.  Both run the grid kernels — a lone region
   tuple is the kernel over one row — so what the ratio reports is what
   fusion and block execution save in hops and conversions; the gate is
   that the results are identical.
4. **Deploy-mode divergence** — threaded, distributed-tcp,
   distributed-shm and elastic runs of both pipelines must produce
   identical results (exact float comparison: both engine paths reduce
   summaries with the same numpy calls).

Sizing via ``REPRO_BENCH_THERMAL_LAYERS`` / ``_DIST_LAYERS``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.am.scanpath import ThermalBuildConfig, synthesize_thermal_build
from repro.bench import format_table
from repro.core import DeployConfig, Strata
from repro.core.deploy import ElasticConfig
from repro.dist import DistConfig
from repro.thermal import (
    ThermalPipelineConfig,
    build_forecast_pipeline,
    build_reconstruction_pipeline,
    calibrate_thermal_job,
)
from repro.thermal.estimator import PartitionThermalRegions

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_thermal.json"

#: forecast RMSE must beat the sensor noise floor by at least this margin
FORECAST_GATE_FRACTION_OF_SENSOR = 1.0
#: mean relative reconstruction error gates (vs the hidden actual values)
POWER_ERROR_GATE = 0.05
SPEED_ERROR_GATE = 0.08
_results: dict[str, dict] = {}


def _layers() -> int:
    return int(os.environ.get("REPRO_BENCH_THERMAL_LAYERS", 16))


def _dist_layers() -> int:
    return int(os.environ.get("REPRO_BENCH_THERMAL_DIST_LAYERS", 6))


def _build(layers: int, seed: int = 11):
    return synthesize_thermal_build(
        ThermalBuildConfig(layers=layers, seed=seed)
    )


def _run_forecast(build, deploy_config=None, plan=None):
    strata = Strata(engine_mode="threaded", connector_mode="pubsub")
    pipeline = build_forecast_pipeline(
        iter(build.records), iter(build.records), build.config,
        ThermalPipelineConfig(), strata=strata,
    )
    calibrate_thermal_job(strata.kv, build, laser=False)
    started = time.monotonic()
    if deploy_config is not None:
        strata.deploy(deploy_config)
    elif plan is not None:
        strata.deploy(DeployConfig(plan=plan))
    else:
        strata.deploy()
    wall = time.monotonic() - started
    return pipeline, wall


def _run_reconstruction(build, deploy_config=None):
    strata = Strata(engine_mode="threaded", connector_mode="pubsub")
    pipeline = build_reconstruction_pipeline(
        iter(build.records), build.config, ThermalPipelineConfig(),
        strata=strata,
    )
    calibrate_thermal_job(strata.kv, build)
    strata.deploy(deploy_config) if deploy_config is not None else strata.deploy()
    return pipeline


def _forecast_rmse_vs_truth(build, results) -> float:
    """RMSE of each layer-k region forecast against layer-k+1 truth."""
    records = {r.layer: r for r in build.records}
    part = PartitionThermalRegions()
    total, count = 0.0, 0
    for t in results:
        if t.layer + 1 not in records:
            continue
        truth = records[t.layer + 1].true_temp_cells
        i, j = (int(x) for x in t.specimen.split("-")[1:])
        (r0, r1), (c0, c1) = part.region_bounds(i, j, truth.shape)
        diff = t.payload["forecast"] - truth[r0:r1, c0:c1]
        total += float(np.sum(diff * diff))
        count += diff.size
    assert count, "no forecast results to score"
    return (total / count) ** 0.5


def _forecast_key(t):
    return (t.layer, t.specimen, float(t.payload["forecast_mean"]),
            float(t.payload["forecast_max"]), float(t.payload["filtered_mean"]),
            float(t.payload["innovation_rmse"]))


def _reconstruct_key(t):
    return (t.layer, t.specimen, float(t.payload["power_w_hat"]),
            float(t.payload["speed_mm_s_hat"]),
            float(t.payload["power_w_smoothed"]))


def test_forecast_accuracy(benchmark, profile):
    build = _build(_layers())
    runs = []
    benchmark.pedantic(
        lambda: runs.append(_run_forecast(build)), rounds=1, iterations=1
    )
    pipeline, wall = runs[0]
    results = pipeline.sink.results
    rmse = _forecast_rmse_vs_truth(build, results)
    sensor_std = build.config.thermal.sensor_var ** 0.5
    realized = [t.payload["realized_rmse"] for t in results
                if t.payload["realized_rmse"] >= 0]
    _results["forecast"] = {
        "layers": _layers(),
        "results": len(results),
        "forecast_rmse_vs_truth": rmse,
        "sensor_noise_std": sensor_std,
        "rmse_over_sensor_noise": rmse / sensor_std,
        "realized_rmse_vs_measured": float(np.mean(realized)),
        "wall_seconds": wall,
    }
    benchmark.extra_info.update(rmse=round(rmse, 3), sensor_std=sensor_std)
    assert rmse <= sensor_std * FORECAST_GATE_FRACTION_OF_SENSOR, (
        f"forecast RMSE {rmse:.3f} must beat the sensor noise floor "
        f"{sensor_std:.3f}"
    )


def test_reconstruction_accuracy(benchmark, profile):
    build = _build(_layers())
    runs = []
    benchmark.pedantic(
        lambda: runs.append(_run_reconstruction(build)), rounds=1, iterations=1
    )
    results = sorted(runs[0].sink.results, key=lambda t: t.layer)
    actual = {r.layer: (r.actual_power_w, r.actual_speed_mm_s)
              for r in build.records}
    power_errs = [abs(t.payload["power_w_hat"] - actual[t.layer][0])
                  / actual[t.layer][0] for t in results]
    speed_errs = [abs(t.payload["speed_mm_s_hat"] - actual[t.layer][1])
                  / actual[t.layer][1] for t in results]
    _results["reconstruction"] = {
        "layers": _layers(),
        "results": len(results),
        "power_mean_rel_error": float(np.mean(power_errs)),
        "power_max_rel_error": float(np.max(power_errs)),
        "speed_mean_rel_error": float(np.mean(speed_errs)),
        "speed_max_rel_error": float(np.max(speed_errs)),
    }
    benchmark.extra_info.update(
        power_err_pct=round(float(np.mean(power_errs)) * 100, 2),
        speed_err_pct=round(float(np.mean(speed_errs)) * 100, 2),
    )
    assert float(np.mean(power_errs)) <= POWER_ERROR_GATE
    assert float(np.mean(speed_errs)) <= SPEED_ERROR_GATE


def test_throughput_plan_off_vs_plan_on(benchmark, profile):
    build = _build(_layers())
    modes = {"plan_off": None, "plan_on": True}
    out: dict[str, dict] = {}

    def run_all():
        for name, plan in modes.items():
            pipeline, wall = _run_forecast(build, plan=plan)
            out[name] = {
                "wall_seconds": wall,
                "frames_s": pipeline.frames_processed / wall,
                "frames": pipeline.frames_processed,
                "result_keys": sorted(map(_forecast_key, pipeline.sink.results)),
            }

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    speedup = out["plan_on"]["frames_s"] / out["plan_off"]["frames_s"]
    assert out["plan_on"]["result_keys"] == out["plan_off"]["result_keys"], (
        "the compiled plan changed forecast results"
    )
    _results["throughput"] = {
        "plan_off_frames_s": out["plan_off"]["frames_s"],
        "plan_on_frames_s": out["plan_on"]["frames_s"],
        "plan_on_speedup": speedup,
        "results_identical": True,
    }
    benchmark.extra_info.update(speedup=round(speedup, 2))


def test_deploy_mode_divergence(benchmark, profile):
    build = _build(_dist_layers(), seed=7)
    image_bytes = build.config.image_px ** 2 * 8
    deploys = {
        "threaded": None,
        "distributed-tcp": DeployConfig(
            dist=DistConfig(workers=2, transport="tcp")
        ),
        "distributed-shm": DeployConfig(
            dist=DistConfig(workers=2, transport="shm", shm_slots=32,
                            shm_slab_bytes=image_bytes + (1 << 20))
        ),
        "elastic": DeployConfig(
            plan=True,
            elastic=ElasticConfig(max_parallelism=4, tick_s=0.05,
                                  cooldown_s=0.0),
        ),
    }
    forecast_keys: dict[str, list] = {}
    reconstruct_keys: dict[str, list] = {}

    def run_all():
        for name, cfg in deploys.items():
            pipeline, _ = _run_forecast(build, deploy_config=cfg)
            forecast_keys[name] = sorted(map(_forecast_key, pipeline.sink.results))
            pipeline = _run_reconstruction(build, deploy_config=cfg)
            reconstruct_keys[name] = sorted(
                map(_reconstruct_key, pipeline.sink.results)
            )

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    divergences = {}
    for name in deploys:
        divergences[name] = {
            "forecast": sum(
                a != b for a, b in
                zip(forecast_keys["threaded"], forecast_keys[name])
            ) + abs(len(forecast_keys["threaded"]) - len(forecast_keys[name])),
            "reconstruct": sum(
                a != b for a, b in
                zip(reconstruct_keys["threaded"], reconstruct_keys[name])
            ) + abs(len(reconstruct_keys["threaded"])
                    - len(reconstruct_keys[name])),
        }
    _results["divergence"] = {
        "layers": _dist_layers(),
        "modes": list(deploys),
        "per_mode": divergences,
        "total": sum(sum(d.values()) for d in divergences.values()),
    }
    assert _results["divergence"]["total"] == 0, divergences


def test_thermal_report(benchmark, profile):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # report-only
    assert set(_results) == {
        "forecast", "reconstruction", "throughput", "divergence"
    }, f"missing bench sections: {sorted(_results)}"
    fc = _results["forecast"]
    rc = _results["reconstruction"]
    tp = _results["throughput"]
    print("\n=== Thermal workloads: accuracy & throughput ===")
    print(format_table(
        ["metric", "value", "gate"],
        [
            ["forecast RMSE vs truth", round(fc["forecast_rmse_vs_truth"], 3),
             f"<= sensor {fc['sensor_noise_std']:.2f}"],
            ["power mean rel err %",
             round(rc["power_mean_rel_error"] * 100, 2),
             f"<= {POWER_ERROR_GATE * 100:.0f}%"],
            ["speed mean rel err %",
             round(rc["speed_mean_rel_error"] * 100, 2),
             f"<= {SPEED_ERROR_GATE * 100:.0f}%"],
            ["plan-on speedup", round(tp["plan_on_speedup"], 2), "reported"],
            ["plan-on results identical", tp["results_identical"], "== True"],
            ["deploy-mode divergence", _results["divergence"]["total"], "== 0"],
        ],
    ))
    payload = {
        "profile": profile.name,
        "gates": {
            "forecast_rmse_beats_sensor_noise": True,
            "power_error_gate": POWER_ERROR_GATE,
            "speed_error_gate": SPEED_ERROR_GATE,
            "divergence_gate": 0,
        },
        **_results,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"-> {BENCH_JSON}")
