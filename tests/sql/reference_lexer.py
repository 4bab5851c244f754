"""Reference tokenizer: the per-character loop the compiled scanner replaced.

Kept only as the oracle of the differential tests.  It is the original
loop with two corrections the scanner also makes: every token carries its
start offset, and a digit with no decimal value (``²``) raises ``SqlError``
at the literal's start instead of a bare ``ValueError``.
"""

from __future__ import annotations

from repro.sql.errors import SqlError
from repro.sql.tokens import KEYWORDS, OPERATORS, Token, TokenType


def reference_tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    length = len(source)
    while i < length:
        ch = source[i]
        start = i
        if ch.isspace():
            i += 1
            continue
        if ch == ",":
            tokens.append(Token(TokenType.COMMA, ",", i))
            i += 1
            continue
        if ch == "(":
            tokens.append(Token(TokenType.LPAREN, "(", i))
            i += 1
            continue
        if ch == ")":
            tokens.append(Token(TokenType.RPAREN, ")", i))
            i += 1
            continue
        if ch == "*":
            tokens.append(Token(TokenType.STAR, "*", i))
            i += 1
            continue
        if ch == "'":
            literal, i = _read_string(source, i)
            tokens.append(Token(TokenType.STRING, literal, start))
            continue
        if ch == '"':
            name, i = _read_quoted_identifier(source, i)
            tokens.append(Token(TokenType.IDENTIFIER, name, start))
            continue
        operator = _match_operator(source, i)
        if operator is not None:
            tokens.append(Token(TokenType.OPERATOR, operator, i))
            i += len(operator)
            continue
        if ch.isdigit() or (ch == "." and i + 1 < length and source[i + 1].isdigit()):
            number, i = _read_number(source, i)
            tokens.append(Token(TokenType.NUMBER, number, start))
            continue
        if ch.isalpha() or ch == "_":
            word, i = _read_word(source, i)
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, upper, start))
            else:
                tokens.append(Token(TokenType.IDENTIFIER, word, start))
            continue
        raise SqlError(f"unexpected character {ch!r}", i, source)
    tokens.append(Token(TokenType.EOF, None, length))
    return tokens


def _read_string(source: str, start: int) -> tuple[str, int]:
    i = start + 1
    pieces: list[str] = []
    while i < len(source):
        ch = source[i]
        if ch == "'":
            if i + 1 < len(source) and source[i + 1] == "'":
                pieces.append("'")
                i += 2
                continue
            return "".join(pieces), i + 1
        pieces.append(ch)
        i += 1
    raise SqlError("unterminated string literal", start, source)


def _read_quoted_identifier(source: str, start: int) -> tuple[str, int]:
    end = source.find('"', start + 1)
    if end < 0:
        raise SqlError("unterminated quoted identifier", start, source)
    return source[start + 1 : end], end + 1


def _match_operator(source: str, position: int) -> str | None:
    for operator in OPERATORS:
        if source.startswith(operator, position):
            return operator
    return None


def _read_number(source: str, start: int) -> tuple[float | int, int]:
    i = start
    seen_dot = False
    while i < len(source) and (source[i].isdigit() or (source[i] == "." and not seen_dot)):
        if source[i] == ".":
            seen_dot = True
        i += 1
    text = source[start:i]
    multiplier = 1
    if i < len(source) and source[i] in "kKmM":
        multiplier = 1_000 if source[i] in "kK" else 1_000_000
        i += 1
    try:
        if seen_dot:
            return float(text) * multiplier, i
        return int(text) * multiplier, i
    except ValueError:
        raise SqlError(f"invalid number {text!r}", start, source) from None


def _read_word(source: str, start: int) -> tuple[str, int]:
    i = start
    while i < len(source) and (source[i].isalnum() or source[i] == "_"):
        i += 1
    return source[start:i], i
