"""repro.thermal — streaming thermal forecasting & laser reconstruction.

The second and third end-to-end workloads on the middleware (the first is
the porosity use case in :mod:`repro.core.usecase`).  Two pipelines built
from the same Table-1 verbs:

* **Thermal forecasting** — a Kalman-style recursive estimator over the
  layer's temperature grid, fusing thermal frames with the scan plan's
  deposited-energy maps, forecasting the *next* layer's field from the
  commanded schedule and raising predictive QoS alerts through the
  watchdog before an overheat threshold is breached.
* **Laser reconstruction** — per-cell melt-pool intensity features feed a
  recursive-least-squares inverse regression that recovers the delivered
  laser power and scan speed, exposing actuator drift against the
  commanded g-code values.

Both ship scalar/vectorized twin kernels (:mod:`repro.analysis.thermal_kernels`),
run under every deploy mode, and share a broker/KV store when composed on
one ``Strata`` instance.
"""

from .collectors import MeltPoolCollector, ScanPlanCollector, ThermalFrameCollector
from .estimator import (
    EstimateThermalState,
    PartitionThermalRegions,
    ThermalForecastCorrelator,
)
from .features import ExtractMeltPoolFeatures
from .model import (
    LASER_CALIBRATION_KEY_PREFIX,
    THERMAL_MODEL_KEY_PREFIX,
    LaserCalibration,
    load_laser_calibration,
    load_thermal_model,
    store_laser_calibration,
    store_thermal_model,
)
from .pipelines import (
    ThermalPipeline,
    ThermalPipelineConfig,
    build_forecast_pipeline,
    build_reconstruction_pipeline,
    calibrate_thermal_job,
)
from .reconstruct import (
    ReconstructLaserParameters,
    RecursiveLeastSquares,
    calibrate_laser_job,
    fit_laser_calibration,
)

__all__ = [
    "ThermalFrameCollector",
    "ScanPlanCollector",
    "MeltPoolCollector",
    "PartitionThermalRegions",
    "EstimateThermalState",
    "ThermalForecastCorrelator",
    "ExtractMeltPoolFeatures",
    "THERMAL_MODEL_KEY_PREFIX",
    "LASER_CALIBRATION_KEY_PREFIX",
    "LaserCalibration",
    "store_thermal_model",
    "load_thermal_model",
    "store_laser_calibration",
    "load_laser_calibration",
    "RecursiveLeastSquares",
    "fit_laser_calibration",
    "calibrate_laser_job",
    "ReconstructLaserParameters",
    "ThermalPipelineConfig",
    "ThermalPipeline",
    "calibrate_thermal_job",
    "build_forecast_pipeline",
    "build_reconstruction_pipeline",
]
