#!/usr/bin/env python3
"""Streaming thermal state estimation with predictive QoS alerts.

The paper frames layer-to-layer heat accumulation as the quantity a
data-driven process needs to track: each layer's energy input raises the
part's temperature field, and an overheating region must be caught
*before* the laser prints on top of it. This example runs the
``repro.thermal`` forecast pipeline over a synthetic build whose scan
schedule hides a power spike: a per-cell Kalman filter fuses the
commanded scan plan (deposited-energy maps) with noisy, partially
dropped-out thermal frames, forecasts the next layer's temperature
field, and raises *predictive* QoS alerts through the shared watchdog —
one recoat gap before the overheat threshold would actually be breached.

With ``--fleet URL`` the same workload (plus the laser-reconstruction
sibling) is instead submitted to a running ``strata-repro serve``
control plane as two tenants, showing the thermal pipelines as
first-class fleet workloads.

Run:  python examples/thermal_forecasting.py
      python -m repro serve &  python examples/thermal_forecasting.py \
          --fleet http://127.0.0.1:9500
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.request

from repro.am.scanpath import (
    ThermalBuildConfig,
    suggest_overheat_threshold,
    synthesize_thermal_build,
)
from repro.core import Strata
from repro.obs.watchdog import QoSWatchdog
from repro.thermal import (
    ThermalPipelineConfig,
    build_forecast_pipeline,
    calibrate_thermal_job,
)

LAYERS = 24
SPIKE_AT = 16


def run_local() -> int:
    config = ThermalBuildConfig(
        job_id="forecast-demo",
        layers=LAYERS,
        spike_layers=(SPIKE_AT, SPIKE_AT + 2),
        dropout_rate=0.02,
        seed=11,
    )
    build = synthesize_thermal_build(config)
    pipe_cfg = ThermalPipelineConfig()
    pipe_cfg.overheat_threshold = suggest_overheat_threshold(build)

    watchdog = QoSWatchdog()
    strata = Strata(engine_mode="threaded")
    pipeline = build_forecast_pipeline(
        iter(build.records), iter(build.records), config, pipe_cfg,
        strata=strata, watchdog=watchdog,
    )
    calibrate_thermal_job(strata.kv, build, laser=False)
    strata.deploy()

    results = sorted(pipeline.sink.results, key=lambda t: (t.layer, t.specimen))
    print(f"{LAYERS} layers -> {len(results)} region forecasts "
          f"(overheat threshold {pipe_cfg.overheat_threshold:.1f})")
    print(f"{'layer':>5} {'region':<12} {'filtered':>9} {'forecast':>9} "
          f"{'fc_max':>8} {'dropped':>8}")
    for t in results:
        if t.specimen != "region-0-0" or t.layer % 4:
            continue
        p = t.payload
        print(f"{t.layer:>5} {t.specimen:<12} {p['filtered_mean']:>9.2f} "
              f"{p['forecast_mean']:>9.2f} {p['forecast_max']:>8.2f} "
              f"{p['dropped_cells']:>8}")

    realized = [t.payload["realized_rmse"] for t in results
                if t.payload["realized_rmse"] >= 0]
    print(f"\nrealized one-layer-ahead RMSE vs measurement: "
          f"{sum(realized) / len(realized):.2f} "
          f"(sensor noise std {config.thermal.sensor_var ** 0.5:.2f})")

    alerts = watchdog.predictive_alerts()
    print(f"\npredictive QoS alerts ({len(alerts)}; spike seeded at layer "
          f"{SPIKE_AT}):")
    for alert in alerts:
        print(f"  layer {alert.layer} {alert.specimen}: forecast "
              f"{alert.predicted_value:.1f} > threshold {alert.threshold:.1f}, "
              f"{alert.lead_time_s:.1f}s before recoat completes")
    return 0


def submit(base_url: str, tenant: str, workload: dict) -> str:
    req = urllib.request.Request(
        base_url.rstrip("/") + "/jobs",
        method="POST",
        data=json.dumps({"tenant": tenant, "workload": workload}).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=30) as resp:
        return json.loads(resp.read())["job_id"]


def wait(base_url: str, job_id: str, timeout: float = 120.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with urllib.request.urlopen(
            base_url.rstrip("/") + f"/jobs/{job_id}", timeout=30
        ) as resp:
            body = json.loads(resp.read())
        if body["state"] in ("COMPLETED", "FAILED", "CANCELLED"):
            return body
        time.sleep(0.2)
    raise TimeoutError(f"job {job_id} did not finish within {timeout}s")


def run_fleet(base_url: str) -> int:
    """Submit forecast + reconstruction as two fleet tenants."""
    jobs = [
        ("thermal-lab", {"kind": "forecast", "name": "forecast-demo",
                         "layers": 8, "image_px": 96, "window": 4, "seed": 11}),
        ("laser-lab", {"kind": "reconstruct", "name": "reconstruct-demo",
                       "layers": 8, "image_px": 96, "window": 4, "seed": 11}),
    ]
    submitted = [(tenant, submit(base_url, tenant, wl)) for tenant, wl in jobs]
    for tenant, job_id in submitted:
        final = wait(base_url, job_id)
        result = final.get("result") or {}
        print(f"tenant {tenant!r} job {job_id}: {final['state']} "
              f"({result.get('results')} results in "
              f"{result.get('wall_seconds')}s)")
        if final["state"] != "COMPLETED":
            return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fleet", metavar="URL", default=None,
                        help="submit to a running strata-repro serve instead "
                             "of running locally")
    args = parser.parse_args()
    if args.fleet:
        return run_fleet(args.fleet)
    return run_local()


if __name__ == "__main__":
    sys.exit(main())
