"""Tests for the SQL tokenizer."""

import pytest

from repro.sql.errors import SqlError
from repro.sql.lexer import tokenize
from repro.sql.tokens import TokenType


def kinds(source):
    return [t.type for t in tokenize(source)]


def values(source):
    return [t.value for t in tokenize(source)[:-1]]


class TestBasicTokens:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("select FROM where")
        assert all(t.type is TokenType.KEYWORD for t in tokens[:-1])
        assert [t.value for t in tokens[:-1]] == ["SELECT", "FROM", "WHERE"]

    def test_identifier(self):
        token = tokenize("ListProperty")[0]
        assert token.type is TokenType.IDENTIFIER
        assert token.value == "ListProperty"

    def test_star_comma_parens(self):
        assert kinds("*, ( )")[:-1] == [
            TokenType.STAR,
            TokenType.COMMA,
            TokenType.LPAREN,
            TokenType.RPAREN,
        ]

    def test_eof_always_last(self):
        assert tokenize("")[-1].type is TokenType.EOF


class TestOperators:
    @pytest.mark.parametrize("op", ["<", "<=", ">", ">=", "=", "!=", "<>"])
    def test_each_operator(self, op):
        token = tokenize(f"price {op} 5")[1]
        assert token.type is TokenType.OPERATOR
        assert token.value == op

    def test_longest_match(self):
        # "<=" must not lex as "<" then "=".
        tokens = tokenize("a <= 1")
        assert tokens[1].value == "<="


class TestNumbers:
    def test_integer(self):
        assert values("123") == [123]

    def test_decimal(self):
        assert values("2.5") == [2.5]

    def test_k_suffix(self):
        assert values("250K") == [250_000]

    def test_lowercase_k_suffix(self):
        assert values("250k") == [250_000]

    def test_m_suffix(self):
        assert values("1M") == [1_000_000]

    def test_decimal_with_suffix(self):
        assert values("1.5M") == [1_500_000.0]


class TestStrings:
    def test_simple_string(self):
        assert values("'Seattle'") == ["Seattle"]

    def test_escaped_quote(self):
        assert values("'O''Brien'") == ["O'Brien"]

    def test_string_with_comma_and_spaces(self):
        assert values("'Queen Anne, WA'") == ["Queen Anne, WA"]

    def test_unterminated_string_rejected(self):
        with pytest.raises(SqlError, match="unterminated"):
            tokenize("'oops")


class TestQuotedIdentifiers:
    def test_quoted_identifier(self):
        token = tokenize('"year built"')[0]
        assert token.type is TokenType.IDENTIFIER
        assert token.value == "year built"

    def test_unterminated_identifier_rejected(self):
        with pytest.raises(SqlError):
            tokenize('"oops')


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(SqlError, match="unexpected character"):
            tokenize("price @ 5")

    def test_error_carries_position(self):
        try:
            tokenize("price @ 5")
        except SqlError as exc:
            assert exc.position == 6


class TestPositions:
    """Every token carries the offset where it starts."""

    def test_each_token_kind_starts_where_its_text_starts(self):
        source = "SELECT \"year built\", x FROM T WHERE a >= 250K AND b IN ('it''s')"
        for token in tokenize(source)[:-1]:
            if token.type is TokenType.STRING:
                assert source.startswith("'it''s'", token.position)
            elif token.type is TokenType.IDENTIFIER and token.value == "year built":
                assert source.startswith('"year built"', token.position)
            elif token.type is TokenType.NUMBER:
                assert source.startswith("250K", token.position)
            else:
                text = source[token.position :].upper()
                assert text.startswith(str(token.value).upper())

    def test_eof_sits_at_the_end(self):
        assert tokenize("a  ")[-1].position == 3

    def test_whitespace_is_unicode_whitespace(self):
        assert [t.value for t in tokenize("a\u3000\u00a0b")[:-1]] == ["a", "b"]


class TestUnicodeDigits:
    def test_decimal_digits_of_any_script_are_numbers(self):
        assert values("\u0663") == [3]  # ARABIC-INDIC DIGIT THREE

    def test_superscript_digit_is_a_sql_error_at_the_literal(self):
        # '²'.isdigit() is true but int('²') raises: a SqlError, never a
        # bare ValueError, located at the start of the literal.
        with pytest.raises(SqlError) as caught:
            tokenize("price = 1²")
        assert caught.value.position == 8

    def test_superscript_digit_alone(self):
        with pytest.raises(SqlError) as caught:
            tokenize("price = ²")
        assert caught.value.position == 8

    def test_vulgar_fraction_is_unexpected(self):
        with pytest.raises(SqlError, match="unexpected character") as caught:
            tokenize("price = ½")
        assert caught.value.position == 8


class TestNumberEdges:
    def test_second_dot_starts_a_new_literal(self):
        assert values("1.2.3") == [1.2, 0.3]

    def test_suffix_ends_the_literal(self):
        tokens = tokenize("5Mfoo")
        assert [(t.type, t.value, t.position) for t in tokens[:-1]] == [
            (TokenType.NUMBER, 5_000_000, 0),
            (TokenType.IDENTIFIER, "foo", 2),
        ]

    def test_escape_without_closing_quote_is_unterminated(self):
        with pytest.raises(SqlError, match="unterminated") as caught:
            tokenize("x = 'abc''")
        assert caught.value.position == 4
