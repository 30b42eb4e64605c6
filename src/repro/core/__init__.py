"""STRATA core: the paper's contribution.

The Table 1 API (:class:`Strata`), the Raw Data Collectors, the pub/sub
module connectors, the use-case user functions, and the Alg. 1 pipeline
builder.
"""

from .api import (
    MODULE_AGGREGATOR,
    MODULE_EXPERT,
    MODULE_MONITOR,
    MODULE_RAW,
    Strata,
)
from .collectors import LiveLayerFeed, OTImageCollector, PrintingParameterCollector
from .connectors import PubSubReaderSource, PubSubWriterSink, topic_for_stream
from .deploy import DeployConfig, RecoveryConfig
from .errors import (
    DeployConfigError,
    DeploymentError,
    PipelineDefinitionError,
    StrataError,
    UnknownStreamError,
)
from .functions import (
    DBSCANCorrelator,
    IsolateCells,
    IsolateSpecimens,
    LabelCell,
    LabelSpecimenCells,
    LabelSpecimenCellsAdaptive,
)
from .operators import (
    CorrelateEventsOperator,
    DetectEventOperator,
    PartitionOperator,
    default_partition,
)
from .punctuation import is_punctuation, make_punctuation
from .streaks import (
    DetectStreakRows,
    StreakCorrelator,
    StreakPipeline,
    build_streak_use_case,
)
from .usecase import (
    UseCaseConfig,
    UseCasePipeline,
    build_use_case,
    calibrate_job,
    specimen_regions_px,
)

__all__ = [
    "Strata",
    "DeployConfig",
    "RecoveryConfig",
    "DeployConfigError",
    "MODULE_RAW",
    "MODULE_MONITOR",
    "MODULE_AGGREGATOR",
    "MODULE_EXPERT",
    "OTImageCollector",
    "PrintingParameterCollector",
    "LiveLayerFeed",
    "PubSubWriterSink",
    "PubSubReaderSource",
    "topic_for_stream",
    "IsolateSpecimens",
    "IsolateCells",
    "LabelCell",
    "LabelSpecimenCells",
    "LabelSpecimenCellsAdaptive",
    "DetectStreakRows",
    "StreakCorrelator",
    "StreakPipeline",
    "build_streak_use_case",
    "DBSCANCorrelator",
    "PartitionOperator",
    "DetectEventOperator",
    "CorrelateEventsOperator",
    "default_partition",
    "is_punctuation",
    "make_punctuation",
    "UseCaseConfig",
    "UseCasePipeline",
    "build_use_case",
    "calibrate_job",
    "specimen_regions_px",
    "StrataError",
    "UnknownStreamError",
    "PipelineDefinitionError",
    "DeploymentError",
]
