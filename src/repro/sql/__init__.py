"""SQL dialect for workload logs: lexer, parser, compiler, formatter.

The paper's preprocessor consumes "the log of SQL query strings" (Section
4.2).  This package parses that dialect — conjunctive SELECT statements with
IN / BETWEEN / comparison conditions — and compiles it onto the relational
engine, plus the inverse (formatting queries back to strings) so synthetic
workloads round-trip through the same text representation as real logs.
"""

from repro.sql.ast_nodes import (
    BetweenCondition,
    ComparisonCondition,
    Condition,
    InCondition,
    SelectStatement,
)
from repro.sql.compiler import compile_condition, compile_statement, parse_query
from repro.sql.errors import SqlError
from repro.sql.formatter import format_literal, format_predicate, format_query
from repro.sql.lexer import tokenize
from repro.sql.parser import parse

__all__ = [
    "BetweenCondition",
    "ComparisonCondition",
    "Condition",
    "InCondition",
    "SelectStatement",
    "SqlError",
    "compile_condition",
    "compile_statement",
    "format_literal",
    "format_predicate",
    "format_query",
    "parse",
    "parse_query",
    "tokenize",
]
