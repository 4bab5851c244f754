"""Recursive-descent parser for the workload SQL dialect.

Grammar (conjunctive SPJ selections, footnote 6 of the paper)::

    statement   := SELECT select_list FROM identifier [WHERE conjunction]
                   [ORDER BY identifier [ASC|DESC]] [LIMIT number]
    select_list := '*' | identifier (',' identifier)*
    conjunction := condition (AND condition)*
    condition   := identifier IN '(' literal (',' literal)* ')'
                 | identifier BETWEEN literal AND literal
                 | identifier op literal
    op          := '=' | '!=' | '<>' | '<' | '<=' | '>' | '>='
    literal     := number | string

ORDER BY / LIMIT clauses appear in real search logs; they are parsed and
discarded because the paper's statistics use only selection conditions.
"""

from __future__ import annotations

from typing import Any

from repro import perf
from repro.sql.ast_nodes import (
    BetweenCondition,
    ComparisonCondition,
    Condition,
    InCondition,
    SelectStatement,
)
from repro.sql.errors import SqlError
from repro.sql.lexer import tokenize
from repro.sql.tokens import Token, TokenType


def parse(source: str) -> SelectStatement:
    """Parse one SQL SELECT string into a :class:`SelectStatement`.

    Raises:
        SqlError: on any deviation from the dialect grammar.
    """
    with perf.span("sql.parse"):
        return _Parser(source).parse_statement()


class _Parser:
    """Single-use recursive-descent parser over a token list.

    The list always ends with an EOF token, which is never consumed, so
    ``self._tokens[self._position]`` is always the current token.
    """

    def __init__(self, source: str) -> None:
        self._source = source
        self._tokens = tokenize(source)
        self._position = 0

    # -- token plumbing ------------------------------------------------------

    def _at_keyword(self, word: str) -> bool:
        """True if the current token is ``word``, an upper-case keyword."""
        token = self._tokens[self._position]
        return token.type is TokenType.KEYWORD and token.value == word

    def _expect_keyword(self, word: str) -> None:
        if not self._at_keyword(word):
            self._fail(f"expected {word}")
        self._position += 1

    def _expect(self, token_type: TokenType) -> Token:
        token = self._tokens[self._position]
        if token.type is not token_type:
            self._fail(f"expected {token_type.value}")
        self._position += 1
        return token

    def _fail(self, message: str) -> None:
        token = self._tokens[self._position]
        raise SqlError(f"{message}, found {token}", token.position, self._source)

    # -- grammar productions ---------------------------------------------------

    def parse_statement(self) -> SelectStatement:
        self._expect_keyword("SELECT")
        columns = self._parse_select_list()
        self._expect_keyword("FROM")
        table = str(self._expect(TokenType.IDENTIFIER).value)
        conditions: tuple[Condition, ...] = ()
        if self._at_keyword("WHERE"):
            self._position += 1
            conditions = self._parse_conjunction()
        self._skip_order_by()
        self._skip_limit()
        if self._tokens[self._position].type is not TokenType.EOF:
            self._fail("unexpected trailing input")
        return SelectStatement(columns=columns, table=table, conditions=conditions)

    def _parse_select_list(self) -> tuple[str, ...] | None:
        if self._tokens[self._position].type is TokenType.STAR:
            self._position += 1
            return None
        names = [str(self._expect(TokenType.IDENTIFIER).value)]
        while self._tokens[self._position].type is TokenType.COMMA:
            self._position += 1
            names.append(str(self._expect(TokenType.IDENTIFIER).value))
        return tuple(names)

    def _parse_conjunction(self) -> tuple[Condition, ...]:
        conditions = [self._parse_condition()]
        while self._at_keyword("AND"):
            self._position += 1
            conditions.append(self._parse_condition())
        return tuple(conditions)

    def _parse_condition(self) -> Condition:
        attribute = str(self._expect(TokenType.IDENTIFIER).value)
        token = self._tokens[self._position]
        if token.type is TokenType.KEYWORD:
            if token.value == "IN":
                self._position += 1
                return self._parse_in_tail(attribute)
            if token.value == "BETWEEN":
                self._position += 1
                low = self._parse_literal()
                self._expect_keyword("AND")
                high = self._parse_literal()
                return BetweenCondition(attribute=attribute, low=low, high=high)
        elif token.type is TokenType.OPERATOR:
            self._position += 1
            op = "!=" if token.value == "<>" else token.value
            return ComparisonCondition(
                attribute=attribute, op=op, value=self._parse_literal()
            )
        self._fail("expected IN, BETWEEN, or a comparison operator")
        raise AssertionError("unreachable")

    def _parse_in_tail(self, attribute: str) -> InCondition:
        self._expect(TokenType.LPAREN)
        values = [self._parse_literal()]
        while self._tokens[self._position].type is TokenType.COMMA:
            self._position += 1
            values.append(self._parse_literal())
        self._expect(TokenType.RPAREN)
        return InCondition(attribute=attribute, values=tuple(values))

    def _parse_literal(self) -> Any:
        token = self._tokens[self._position]
        if token.type is TokenType.NUMBER or token.type is TokenType.STRING:
            self._position += 1
            return token.value
        self._fail("expected a literal")
        raise AssertionError("unreachable")

    # -- discarded clauses -------------------------------------------------------

    def _skip_order_by(self) -> None:
        if not self._at_keyword("ORDER"):
            return
        self._position += 1
        self._expect_keyword("BY")
        self._expect(TokenType.IDENTIFIER)
        if self._at_keyword("ASC") or self._at_keyword("DESC"):
            self._position += 1

    def _skip_limit(self) -> None:
        if not self._at_keyword("LIMIT"):
            return
        self._position += 1
        self._expect(TokenType.NUMBER)
