"""The paper's real-world use case (§5, Figure 3, Algorithm 1).

Detect portions of the specimens being printed that were melted with
too-low or too-high thermal energy, cluster them within and across layers
with DBSCAN, and report clusters bigger than a volume threshold.

:func:`build_use_case` composes the exact Alg. 1 API sequence over a
:class:`~repro.core.api.Strata` instance; :func:`calibrate_job` implements
the "threshold computed based on historical information from previous
jobs" step by rendering (or accepting) reference layers and persisting the
fitted thresholds in the key-value store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..am.dataset import LayerRecord
from ..am.geometry import PLATE_MM
from ..analysis.thresholds import calibrate_thresholds, store_thresholds
from ..kvstore.api import KVStore
from ..spe.sink import CollectingSink, Sink
from ..spe.source import Source
from .api import Strata
from .collectors import OTImageCollector, PrintingParameterCollector
from .functions import (
    DBSCANCorrelator,
    IsolateCells,
    IsolateSpecimens,
    LabelCell,
    LabelSpecimenCells,
)


@dataclass
class UseCaseConfig:
    """Tunables of the Alg. 1 pipeline.

    ``cell_edge_px`` is the Figure 5 sweep parameter; ``window_layers``
    (the paper's ``L``) is the Figure 6 sweep parameter. ``vectorized``
    selects the fused isolate+label detect function instead of per-cell
    tuples (see :mod:`repro.core.functions`); outputs are identical, but
    the default (False) keeps the paper's exact operator chain, whose
    per-cell cost structure the evaluation figures depend on. How many
    replicas the keyed stages run with is set by the deployment's plan
    (:class:`~repro.spe.plan.PlanConfig`), not by the pipeline.
    """

    image_px: int = 2000
    plate_mm: float = PLATE_MM
    cell_edge_px: int = 20
    window_layers: int = 10
    layer_thickness_mm: float = 0.04
    min_samples: int = 3
    eps_mm: float | None = None  # default: 1.6 x cell edge in mm
    min_volume_mm3: float = 0.0
    vectorized: bool = False
    render_cluster_image: bool = False

    @property
    def px_per_mm(self) -> float:
        return self.image_px / self.plate_mm

    @property
    def cell_edge_mm(self) -> float:
        return self.cell_edge_px / self.px_per_mm

    @property
    def resolved_eps_mm(self) -> float:
        if self.eps_mm is not None:
            return self.eps_mm
        # Adjacent (including diagonal) cells must be density-reachable:
        # diagonal distance is sqrt(2) x edge; 1.6 adds slack for the z term.
        return 1.6 * self.cell_edge_mm

    @property
    def cell_volume_mm3(self) -> float:
        return self.cell_edge_mm**2 * self.layer_thickness_mm


def calibrate_job(
    store: KVStore,
    job_id: str,
    reference_images: Iterable[np.ndarray],
    cell_edge_px: int,
    regions: list[tuple[int, int, int, int]] | None = None,
) -> None:
    """Fit thermal thresholds on historical layers and persist them.

    ``regions`` should be the specimen footprints in pixels so calibration
    sees exactly the cell population the pipeline will label.
    """
    thresholds = calibrate_thresholds(
        reference_images, cell_edge_px, regions=regions
    )
    store_thresholds(store, job_id, thresholds)


def specimen_regions_px(
    specimens: Iterable, image_px: int, plate_mm: float = PLATE_MM
) -> list[tuple[int, int, int, int]]:
    """Pixel footprints of specimens, for :func:`calibrate_job`."""
    return [s.footprint.to_pixels(image_px, plate_mm) for s in specimens]


@dataclass
class UseCasePipeline:
    """A composed Alg. 1 pipeline plus handles the harness needs."""

    strata: Strata
    sink: Sink
    config: UseCaseConfig
    detect_fn: LabelSpecimenCells | LabelCell
    correlator: DBSCANCorrelator

    @property
    def cells_evaluated(self) -> int:
        """Cells scanned by the detect stage so far (throughput metric)."""
        return self.detect_fn.cells_evaluated


def build_use_case(
    ot_records: Iterable[LayerRecord],
    pp_records: Iterable[LayerRecord],
    config: UseCaseConfig,
    strata: Strata | None = None,
    sink: Sink | None = None,
    ot_source: Source | None = None,
    pp_source: Source | None = None,
    detect_override: LabelSpecimenCells | LabelCell | None = None,
    checkpointable: bool = False,
) -> UseCasePipeline:
    """Compose Algorithm 1 on a Strata instance.

    The caller must have calibrated thresholds for the job in
    ``strata.kv`` (see :func:`calibrate_job`) before deploying.
    ``ot_source``/``pp_source`` override the default collectors (used by
    the bench harness to pace arrivals); when given, the corresponding
    records iterable is ignored. ``detect_override`` swaps in a custom
    detect function (e.g. the adaptive-threshold variant) in the
    vectorized slot. ``checkpointable=True`` wraps both collectors for
    barrier injection and the expert sink in a
    :class:`~repro.recovery.dedup.DedupSink`, making the pipeline ready
    for ``deploy(checkpointer=...)`` / crash recovery.
    """
    if strata is None:
        strata = Strata()
    if sink is None:
        sink = CollectingSink("expert")
    if checkpointable:
        from ..recovery.dedup import DedupSink

        if not isinstance(sink, DedupSink):
            sink = DedupSink(sink)

    # Alg. 1 L1-L2: raw data collectors.
    strata.add_source(
        pp_source or PrintingParameterCollector(pp_records),
        "pp",
        checkpointable=checkpointable,
    )
    strata.add_source(
        ot_source or OTImageCollector(ot_records),
        "OT",
        checkpointable=checkpointable,
    )
    # Alg. 1 L3: fuse OT images with printing parameters (same tau/job/layer).
    strata.fuse("OT", "pp", "OT&pp")
    # Alg. 1 L4: isolate the pixels of each specimen.
    strata.partition(
        "OT&pp", "spec", IsolateSpecimens(config.image_px, config.plate_mm)
    )
    correlator = DBSCANCorrelator(
        eps_mm=config.resolved_eps_mm,
        min_samples=config.min_samples,
        px_per_mm=config.px_per_mm,
        layer_thickness_mm=config.layer_thickness_mm,
        cell_volume_mm3=config.cell_volume_mm3,
        min_volume_mm3=config.min_volume_mm3,
        render_cluster_image=config.render_cluster_image,
    )
    detect_fn: LabelSpecimenCells | LabelCell
    if detect_override is not None:
        detect_fn = detect_override
        strata.detect_event("spec", "cellLabel", detect_fn)
    elif config.vectorized:
        # Alg. 1 L5+L6 fused: per-cell isolation and labeling in one pass.
        detect_fn = LabelSpecimenCells(strata.kv, config.cell_edge_px)
        strata.detect_event("spec", "cellLabel", detect_fn)
    else:
        # Alg. 1 L5: isolate cells; L6: label each cell.
        strata.partition("spec", "cell", IsolateCells(config.cell_edge_px))
        detect_fn = LabelCell(strata.kv)
        strata.detect_event("cell", "cellLabel", detect_fn)
    # Alg. 1 L7: cluster events within and across the last L layers.
    strata.correlate_events("cellLabel", "out", config.window_layers, correlator)
    strata.deliver("out", sink)
    return UseCasePipeline(
        strata=strata,
        sink=sink,
        config=config,
        detect_fn=detect_fn,
        correlator=correlator,
    )
