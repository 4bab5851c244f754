"""Token model for the workload SQL dialect.

The workload logs the paper consumes are plain SQL SELECT strings with
conjunctive WHERE clauses (Section 4.2, footnote 6).  The dialect we accept
covers what such logs contain: identifiers, string/number literals,
comparison operators, ``IN`` lists, ``BETWEEN``, and ``AND``.
"""

from __future__ import annotations

import enum
from typing import Any, NamedTuple


class TokenType(enum.Enum):
    """Lexical categories of the workload SQL dialect."""

    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    COMMA = "comma"
    LPAREN = "lparen"
    RPAREN = "rparen"
    STAR = "star"
    EOF = "eof"


#: Keywords recognized case-insensitively by the lexer.
KEYWORDS = frozenset(
    {
        "SELECT",
        "FROM",
        "WHERE",
        "AND",
        "IN",
        "BETWEEN",
        "NOT",
        "ORDER",
        "BY",
        "ASC",
        "DESC",
        "LIMIT",
    }
)

#: Comparison operators, longest first so the lexer can match greedily.
OPERATORS = ("<=", ">=", "!=", "<>", "=", "<", ">")


class Token(NamedTuple):
    """One lexical token and the offset where it starts (for error messages).

    A named tuple: the lexer builds one per token of every logged query,
    so construction must cost no more than a tuple's.
    """

    type: TokenType
    value: Any
    position: int

    def __str__(self) -> str:
        if self.type is TokenType.EOF:
            return "<end of input>"
        return repr(str(self.value))
