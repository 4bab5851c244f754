"""Differential tests: the compiled scanner against the per-character loop.

On any input the two must agree token for token (type, value and its
Python type, start offset), or both raise ``SqlError`` at the same
position.  Inputs are drawn from dialect fragments — glued together with
no separator, so quotes, numbers and words collide — and from arbitrary
Unicode text.
"""

import re
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sql.errors import SqlError
from repro.sql.lexer import tokenize
from tests.sql.reference_lexer import reference_tokenize

FRAGMENTS = [
    "SELECT", "select", "FROM", "WHERE", "And", "IN", "BETWEEN", "ORDER",
    "BY", "LIMIT", "price", "_x1", "ListProperty", "ſelect",
    "'", "''", "'Queen Anne, WA'", "'O''Brien'", '"', '"year built"', '""',
    ",", "(", ")", "*", "<=", ">=", "!=", "<>", "=", "<", ">", "!", "@", ".",
    "0", "42", "1.5", ".5", "7.", "1.2.3", "250K", "2m", "5Mfoo", "1M", "e3",
    "²", "٣", "½", "１", "Ⅻ",
    " ", "  ", "\t", "\n", " ", "　",
]

dialect = st.lists(st.sampled_from(FRAGMENTS), max_size=24).map("".join)
mixed = st.lists(
    st.one_of(st.sampled_from(FRAGMENTS), st.text(max_size=3)), max_size=16
).map("".join)


def outcome(lex, source):
    try:
        return [
            (token.type, type(token.value), token.value, token.position)
            for token in lex(source)
        ]
    except SqlError as exc:
        return ("SqlError", exc.position)


@settings(max_examples=400, deadline=None)
@given(dialect)
@example("SELECT * FROM T WHERE a = 'x' 'y'")
@example("x IN ('it''s', 'a''') AND y BETWEEN 1.2.3 AND 5Mfoo")
@example("price = ²")
@example("price = 1²")
@example("price = .²")
@example("price = ٣٣.٣k")
@example("price = ½")
@example("city = 'unterminated")
@example("city = 'escape at end''")
@example('"unterminated')
@example("")
@example("   ")
def test_dialect_strings_lex_identically(source):
    assert outcome(tokenize, source) == outcome(reference_tokenize, source)


@settings(max_examples=300, deadline=None)
@given(st.one_of(mixed, st.text(max_size=40)))
def test_arbitrary_text_lexes_identically(source):
    assert outcome(tokenize, source) == outcome(reference_tokenize, source)


def test_regex_classes_match_the_str_predicates():
    # The scanner's premise, checked over every code point: re's \s, \w
    # and \d are exactly str.isspace, str.isalnum plus "_", and
    # str.isdecimal, the tests the per-character loop made.
    every = "".join(
        chr(c) for c in range(sys.maxunicode + 1) if not 0xD800 <= c <= 0xDFFF
    )
    assert set(re.findall(r"\s", every)) == {c for c in every if c.isspace()}
    assert set(re.findall(r"\w", every)) == {
        c for c in every if c.isalnum() or c == "_"
    }
    assert set(re.findall(r"\d", every)) == {c for c in every if c.isdecimal()}
