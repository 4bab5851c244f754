"""Tokenizer for the workload SQL dialect.

One compiled scanner walks the whole string: each match is one token
(after any leading whitespace), so Python code runs once per token rather
than once per character.  Boot parses the entire statistics log through
here (Section 4.2), which makes this the hottest loop of a cold start.
"""

from __future__ import annotations

import re

from repro import perf
from repro.sql.errors import SqlError, SqlSyntaxError
from repro.sql.tokens import KEYWORDS, OPERATORS, Token, TokenType

__all__ = ["SqlError", "SqlSyntaxError", "tokenize"]

#: One alternative per token kind; ``lastgroup`` names the kind matched.
#: ``\s``/``\w``/``\d`` are the Unicode classes of ``str.isspace``,
#: ``str.isalnum`` (plus ``_``) and ``str.isdecimal``.  A string literal
#: must not be followed by a quote, so ``'a''`` (an escape with no closing
#: quote) fails as a whole instead of backtracking to ``'a'``.  Operators
#: are tried longest first, in ``OPERATORS`` order.  ``end`` matches only
#: at the end of input; ``bad`` catches any other character.
_SCANNER = re.compile(
    r"""
    \s*
    (?:
        (?P<word>[^\W\d]\w*)
      | (?P<punct>[,()*])
      | '(?P<string>[^']*(?:''[^']*)*)'(?!')
      | (?P<number>(?:\d+(?:\.\d*)?|\.\d+)[kKmM]?)
      | (?P<operator>OPERATORS)
      | "(?P<quoted>[^"]*)"
      | (?P<end>\Z)
      | (?P<bad>.)
    )
    """.replace("OPERATORS", "|".join(map(re.escape, OPERATORS))),
    re.VERBOSE | re.DOTALL,
)

_PUNCTUATION = {
    ",": TokenType.COMMA,
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    "*": TokenType.STAR,
}

#: Number suffixes real-estate logs use (``250K`` == 250000).
_MULTIPLIERS = {"k": 1_000, "K": 1_000, "m": 1_000_000, "M": 1_000_000}


def tokenize(source: str) -> list[Token]:
    """Tokenize a SQL string into a Token list ending with an EOF token.

    Identifiers may be bare or double-quoted (quoting permits spaces, as in
    neighborhood names like ``"Queen Anne"``).  String literals use single
    quotes with ``''`` escaping.  Numbers may be integers, decimals, or use
    a trailing ``K``/``M`` multiplier as real-estate logs commonly do
    (``250K`` == 250000).  Every token carries the offset where it starts.

    Raises:
        SqlError: on any character sequence outside the dialect.
    """
    with perf.span("sql.lex"):
        return _tokenize(source)


def _tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    for match in _SCANNER.finditer(source):
        kind = match.lastgroup
        if kind == "word":
            word = match.group(kind)
            start = match.start(kind)
            first = word[0]
            # [^\W\d] also admits numerics that are not decimal digits
            # ('²', '½'); a word starts with a letter or an underscore.
            if not (first.isalpha() or first == "_"):
                _reject(source, start)
            upper = word.upper()
            if upper in KEYWORDS:
                append(Token(TokenType.KEYWORD, upper, start))
            else:
                append(Token(TokenType.IDENTIFIER, word, start))
        elif kind == "punct":
            text = match.group(kind)
            append(Token(_PUNCTUATION[text], text, match.start(kind)))
        elif kind == "string":
            append(
                Token(
                    TokenType.STRING,
                    match.group(kind).replace("''", "'"),
                    match.start(kind) - 1,
                )
            )
        elif kind == "number":
            append(Token(TokenType.NUMBER, _number(source, match), match.start(kind)))
        elif kind == "operator":
            append(Token(TokenType.OPERATOR, match.group(kind), match.start(kind)))
        elif kind == "quoted":
            append(
                Token(TokenType.IDENTIFIER, match.group(kind), match.start(kind) - 1)
            )
        elif kind == "end":
            break
        else:
            _reject(source, match.start(kind))
    append(Token(TokenType.EOF, None, len(source)))
    return tokens


def _number(source: str, match: re.Match) -> float | int:
    """The value of a numeric literal, applying any K/M multiplier."""
    text = match.group("number")
    multiplier = _MULTIPLIERS.get(text[-1])
    if multiplier is None:
        multiplier = 1
        end = match.end()
        if end < len(source) and source[end].isdigit():
            # A digit with no decimal value (``1²``) continues the literal
            # but cannot be converted.
            _reject(source, match.start("number"))
    else:
        text = text[:-1]
    if "." in text:
        return float(text) * multiplier
    return int(text) * multiplier


def _reject(source: str, position: int) -> None:
    """Raise the SqlError for the token that cannot start at ``position``."""
    ch = source[position]
    if ch == "'":
        raise SqlError("unterminated string literal", position, source)
    if ch == '"':
        raise SqlError("unterminated quoted identifier", position, source)
    if ch.isdigit() or (ch == "." and source[position + 1 : position + 2].isdigit()):
        raise SqlError(f"invalid number starting with {ch!r}", position, source)
    raise SqlError(f"unexpected character {ch!r}", position, source)
