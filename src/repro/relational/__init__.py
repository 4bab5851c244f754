"""In-memory relational engine: the storage substrate of the reproduction.

Provides typed column-oriented tables, selection predicates with the
overlap semantics of paper Section 4.2, SPJ query execution, per-attribute
statistics, and CSV round-trip.
"""

from repro.relational.backends import (
    ColumnStore,
    DictColumn,
    FloatColumn,
    IntColumn,
)
from repro.relational.csvio import read_csv, write_csv
from repro.relational.expressions import (
    ComparisonPredicate,
    Conjunction,
    InPredicate,
    IsNullPredicate,
    Predicate,
    RangePredicate,
    TruePredicate,
    comparison_operator,
    normalize,
)
from repro.relational.join import DimensionJoin, join_star
from repro.relational.query import SelectQuery
from repro.relational.schema import Attribute, TableSchema, read_schema_json
from repro.relational.statistics import (
    CategoricalStats,
    NumericStats,
    categorical_stats,
    numeric_stats,
    value_counts,
)
from repro.relational.table import Row, RowSet, Table
from repro.relational.types import AttributeKind, DataType

__all__ = [
    "Attribute",
    "AttributeKind",
    "CategoricalStats",
    "ColumnStore",
    "ComparisonPredicate",
    "Conjunction",
    "DataType",
    "DictColumn",
    "DimensionJoin",
    "FloatColumn",
    "InPredicate",
    "IntColumn",
    "IsNullPredicate",
    "NumericStats",
    "Predicate",
    "RangePredicate",
    "Row",
    "RowSet",
    "SelectQuery",
    "Table",
    "TableSchema",
    "TruePredicate",
    "categorical_stats",
    "comparison_operator",
    "join_star",
    "normalize",
    "numeric_stats",
    "read_csv",
    "read_schema_json",
    "value_counts",
    "write_csv",
]
