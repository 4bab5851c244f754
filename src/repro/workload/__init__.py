"""Workload substrate: query logs, count tables, preprocessing, generation.

Implements paper Section 4.2's statistics pipeline — "our technique only
requires the log of SQL query strings as input" — plus the synthetic
workload generator standing in for the proprietary MSN logs and the
query-broadening strategies of the simulated study (Section 6.2).
"""

from repro.workload.broadening import (
    STRATEGIES,
    BroadeningStrategy,
    broaden_drop_all_but_location,
    broaden_to_region,
    broaden_widen_price,
)
from repro.workload.counts import (
    AttributeUsageCounts,
    OccurrenceCounts,
    RangeIndex,
    SplitPointRow,
    SplitPointsTable,
)
from repro.workload.generator import (
    DEFAULT_ATTRIBUTE_USAGE,
    WorkloadGeneratorConfig,
    build_paper_scale_workload,
    generate_workload,
)
from repro.workload.log import Workload, read_log
from repro.workload.model import WorkloadQuery
from repro.workload.personalization import (
    blend_workloads,
    personal_share,
    personalized_statistics,
    weight_for_share,
)
from repro.workload.preprocess import (
    DEFAULT_SEPARATION_INTERVAL,
    WorkloadStatistics,
    preprocess_workload,
)

__all__ = [
    "AttributeUsageCounts",
    "BroadeningStrategy",
    "DEFAULT_ATTRIBUTE_USAGE",
    "DEFAULT_SEPARATION_INTERVAL",
    "OccurrenceCounts",
    "RangeIndex",
    "STRATEGIES",
    "SplitPointRow",
    "SplitPointsTable",
    "Workload",
    "WorkloadGeneratorConfig",
    "WorkloadQuery",
    "WorkloadStatistics",
    "blend_workloads",
    "broaden_drop_all_but_location",
    "broaden_to_region",
    "broaden_widen_price",
    "build_paper_scale_workload",
    "generate_workload",
    "personal_share",
    "personalized_statistics",
    "preprocess_workload",
    "read_log",
    "weight_for_share",
]
