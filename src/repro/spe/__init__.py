"""Stream Processing Engine (Liebre substitute).

A lightweight SPE for scale-up servers: continuous queries are DAGs of
native operators (Map, Filter, Aggregate, Join, Union) connected by bounded
streams, run either by a thread-per-operator scheduler (the Liebre model)
or a deterministic synchronous scheduler for tests.
"""

from .barrier import (
    RESCALE_EPOCH_BASE,
    CheckpointBarrier,
    RescaleBarrier,
    is_barrier,
)
from .engine import RunReport, StreamEngine
from .errors import (
    EngineStateError,
    MetricsError,
    OperatorError,
    PlanError,
    QueryValidationError,
    SPEError,
)
from .metrics import (
    FiveNumberSummary,
    LatencyRecorder,
    OperatorStats,
    ThroughputMeter,
    summarize,
)
from .operators import (
    AggregateOperator,
    FilterOperator,
    HashRouter,
    JoinOperator,
    MapOperator,
    Operator,
    UnionOperator,
    partition_key,
    window_indices,
)
from .columnar import ColumnarBlock
from .plan import (
    FusedOperator,
    PlanConfig,
    ReplicaGroupMeta,
    VectorizedFusedOperator,
    build_replicated_group,
    compile_plan,
    fuse_linear_chains,
    render_plan,
    replicate_keyed_stages,
)
from .query import Node, Query
from .scheduler import NodeExecutor, SynchronousScheduler, ThreadedScheduler
from .sink import CallbackSink, CollectingSink, NullSink, Sink
from .source import (
    CallbackSource,
    IterableSource,
    ListSource,
    RateLimitedSource,
    Source,
)
from .stream import END_OF_STREAM, Stream, TupleBatch
from .tuples import WHOLE_PORTION, WHOLE_SPECIMEN, StreamTuple
from .watermark import WatermarkTracker

__all__ = [
    "StreamTuple",
    "WHOLE_SPECIMEN",
    "WHOLE_PORTION",
    "Stream",
    "END_OF_STREAM",
    "TupleBatch",
    "ColumnarBlock",
    "PlanConfig",
    "FusedOperator",
    "VectorizedFusedOperator",
    "ReplicaGroupMeta",
    "build_replicated_group",
    "compile_plan",
    "fuse_linear_chains",
    "replicate_keyed_stages",
    "render_plan",
    "Operator",
    "MapOperator",
    "FilterOperator",
    "AggregateOperator",
    "JoinOperator",
    "UnionOperator",
    "HashRouter",
    "partition_key",
    "window_indices",
    "Source",
    "ListSource",
    "IterableSource",
    "CallbackSource",
    "RateLimitedSource",
    "Sink",
    "CollectingSink",
    "CallbackSink",
    "NullSink",
    "Query",
    "Node",
    "StreamEngine",
    "RunReport",
    "SynchronousScheduler",
    "ThreadedScheduler",
    "NodeExecutor",
    "WatermarkTracker",
    "LatencyRecorder",
    "ThroughputMeter",
    "FiveNumberSummary",
    "OperatorStats",
    "summarize",
    "SPEError",
    "QueryValidationError",
    "EngineStateError",
    "MetricsError",
    "OperatorError",
    "PlanError",
    "CheckpointBarrier",
    "RescaleBarrier",
    "RESCALE_EPOCH_BASE",
    "is_barrier",
]
