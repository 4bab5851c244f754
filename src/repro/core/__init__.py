"""The paper's contribution: cost-based automatic categorization.

Category trees (Section 3), the CostAll/CostOne models (Section 4), the
workload-driven probability estimator (Section 4.2), the partitioning
heuristics and the level-by-level algorithm (Section 5), and the
No-Cost/Attr-Cost baselines (Section 6.1).
"""

from repro.core.algorithm import (
    CostBasedCategorizer,
    LevelByLevelCategorizer,
    Partitioner,
    Partitioning,
    Sizes,
)
from repro.core.baselines import (
    ArbitraryOrderCategoricalPartitioner,
    AttrCostCategorizer,
    EquiWidthNumericPartitioner,
    NoCostCategorizer,
)
from repro.core.config import (
    CategorizerConfig,
    LIST_PROPERTY_SEPARATION_INTERVALS,
    PAPER_CONFIG,
    PAPER_RETAINED_ATTRIBUTES,
)
from repro.core.correlation import CorrelationAwareEstimator, JointWorkloadIndex
from repro.core.cost import CostModel, NodeCosts
from repro.core.enumerate import (
    EnumerationResult,
    FixedOrderCategorizer,
    enumerate_optimal_tree,
)
from repro.core.labels import (
    CategoricalLabel,
    CategoryLabel,
    MissingLabel,
    NumericLabel,
)
from repro.core.partition import (
    CategoricalPartitioner,
    NumericPartitioner,
    bucketize,
    equi_width_partition,
    expected_cost_one_of_ordering,
    order_by_probability,
    order_optimal_one,
)
from repro.core.probability import ProbabilityEstimator
from repro.core.serialize import (
    tree_from_dict,
    tree_from_json,
    tree_to_dict,
    tree_to_json,
)
from repro.core.tree import CategoryNode, CategoryTree

__all__ = [
    "ArbitraryOrderCategoricalPartitioner",
    "AttrCostCategorizer",
    "CategoricalLabel",
    "CategoricalPartitioner",
    "CategorizerConfig",
    "CategoryLabel",
    "CategoryNode",
    "CategoryTree",
    "CorrelationAwareEstimator",
    "CostBasedCategorizer",
    "CostModel",
    "EnumerationResult",
    "EquiWidthNumericPartitioner",
    "FixedOrderCategorizer",
    "JointWorkloadIndex",
    "LIST_PROPERTY_SEPARATION_INTERVALS",
    "LevelByLevelCategorizer",
    "MissingLabel",
    "NoCostCategorizer",
    "NodeCosts",
    "NumericLabel",
    "NumericPartitioner",
    "PAPER_CONFIG",
    "PAPER_RETAINED_ATTRIBUTES",
    "Partitioner",
    "Partitioning",
    "ProbabilityEstimator",
    "Sizes",
    "bucketize",
    "enumerate_optimal_tree",
    "equi_width_partition",
    "expected_cost_one_of_ordering",
    "order_by_probability",
    "order_optimal_one",
    "tree_from_dict",
    "tree_from_json",
    "tree_to_dict",
    "tree_to_json",
]
