"""Core: partition object, quality metrics, configuration presets,
result reporting, and the KaPPa driver."""

from . import metrics
from .config import (
    FAST,
    MAPPING,
    MINIMAL,
    STRONG,
    WALSHAW,
    KappaConfig,
    preset,
)
from .partition import Partition
from .reporting import (
    RunRecord,
    InstanceSummary,
    geometric_mean,
    summarize,
    format_table,
    format_trace_summary,
)

__all__ = [
    "metrics",
    "KappaConfig",
    "MINIMAL",
    "FAST",
    "STRONG",
    "WALSHAW",
    "MAPPING",
    "preset",
    "Partition",
    "RunRecord",
    "InstanceSummary",
    "geometric_mean",
    "summarize",
    "format_table",
    "format_trace_summary",
]

from .partitioner import KappaPartitioner, KappaResult, partition_graph

__all__ += ["KappaPartitioner", "KappaResult", "partition_graph"]

from .incremental import (
    IncrementalResult,
    IncrementalSession,
    incremental_repartition,
)

__all__ += ["IncrementalResult", "IncrementalSession",
            "incremental_repartition"]

from . import objectives
from .objectives import (
    ObjectiveReport,
    Topology,
    evaluate_objectives,
    mapping_cost,
)

__all__ += ["objectives", "ObjectiveReport", "evaluate_objectives",
            "Topology", "mapping_cost"]
