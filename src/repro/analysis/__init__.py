"""Thermal analysis: cell extraction, threshold calibration, labeling."""

from .adaptive import AdaptiveThresholdLearner
from .cells import (
    Cell,
    cell_centers,
    cell_grid_shape,
    cell_means,
    extract_cells,
    masked_cell_means,
)
from .labeling import (
    ALL_LABELS,
    COLD,
    EVENT_LABELS,
    REGULAR,
    VERY_COLD,
    VERY_WARM,
    WARM,
    connected_defects,
    count_defect_regions,
    event_mask,
    is_event,
    label_cell,
    label_grid,
)
from .thermal_kernels import (
    kalman_predict,
    kalman_update,
    laser_feature_vector,
    meltpool_cell_stats,
    top_k_mean,
)
from .thresholds import (
    THRESHOLD_KEY_PREFIX,
    ThermalThresholds,
    calibrate_thresholds,
    load_thresholds,
    store_thresholds,
    threshold_key,
)

__all__ = [
    "Cell",
    "cell_means",
    "masked_cell_means",
    "extract_cells",
    "AdaptiveThresholdLearner",
    "cell_grid_shape",
    "ThermalThresholds",
    "calibrate_thresholds",
    "store_thresholds",
    "load_thresholds",
    "threshold_key",
    "THRESHOLD_KEY_PREFIX",
    "label_cell",
    "label_grid",
    "event_mask",
    "is_event",
    "ALL_LABELS",
    "EVENT_LABELS",
    "VERY_COLD",
    "COLD",
    "REGULAR",
    "WARM",
    "VERY_WARM",
    "kalman_predict",
    "kalman_update",
    "meltpool_cell_stats",
    "top_k_mean",
    "laser_feature_vector",
]
