"""Tests for the SQL parser."""

import pytest

from repro.sql.ast_nodes import (
    BetweenCondition,
    ComparisonCondition,
    InCondition,
)
from repro.sql.errors import SqlError
from repro.sql.parser import parse


class TestSelectList:
    def test_star(self):
        assert parse("SELECT * FROM Homes").columns is None

    def test_named_columns(self):
        stmt = parse("SELECT city, price FROM Homes")
        assert stmt.columns == ("city", "price")

    def test_table_name(self):
        assert parse("SELECT * FROM ListProperty").table == "ListProperty"


class TestConditions:
    def test_no_where(self):
        assert parse("SELECT * FROM T").conditions == ()

    def test_in_condition(self):
        stmt = parse("SELECT * FROM T WHERE city IN ('Seattle', 'Bellevue')")
        (cond,) = stmt.conditions
        assert isinstance(cond, InCondition)
        assert cond.values == ("Seattle", "Bellevue")

    def test_in_single_value(self):
        stmt = parse("SELECT * FROM T WHERE city IN ('Seattle')")
        assert stmt.conditions[0].values == ("Seattle",)

    def test_numeric_in(self):
        stmt = parse("SELECT * FROM T WHERE zipcode IN (98101, 98102)")
        assert stmt.conditions[0].values == (98101, 98102)

    def test_between(self):
        stmt = parse("SELECT * FROM T WHERE price BETWEEN 200000 AND 300000")
        (cond,) = stmt.conditions
        assert isinstance(cond, BetweenCondition)
        assert (cond.low, cond.high) == (200_000, 300_000)

    def test_between_with_k_suffix(self):
        stmt = parse("SELECT * FROM T WHERE price BETWEEN 200K AND 300K")
        assert stmt.conditions[0].low == 200_000

    @pytest.mark.parametrize("op", ["=", "!=", "<", "<=", ">", ">="])
    def test_comparisons(self, op):
        stmt = parse(f"SELECT * FROM T WHERE price {op} 5")
        (cond,) = stmt.conditions
        assert isinstance(cond, ComparisonCondition)
        assert cond.op == op

    def test_diamond_normalized_to_bang_equals(self):
        stmt = parse("SELECT * FROM T WHERE price <> 5")
        assert stmt.conditions[0].op == "!="

    def test_conjunction(self):
        stmt = parse(
            "SELECT * FROM T WHERE city IN ('a') AND price <= 100 "
            "AND bedroomcount BETWEEN 2 AND 4"
        )
        assert len(stmt.conditions) == 3
        assert stmt.condition_attributes() == ("city", "price", "bedroomcount")

    def test_condition_attributes_dedupe(self):
        stmt = parse("SELECT * FROM T WHERE price >= 1 AND price <= 5")
        assert stmt.condition_attributes() == ("price",)


class TestDiscardedClauses:
    def test_order_by_ignored(self):
        stmt = parse("SELECT * FROM T WHERE price <= 5 ORDER BY price DESC")
        assert len(stmt.conditions) == 1

    def test_limit_ignored(self):
        stmt = parse("SELECT * FROM T LIMIT 50")
        assert stmt.conditions == ()

    def test_order_by_then_limit(self):
        stmt = parse("SELECT * FROM T ORDER BY price ASC LIMIT 10")
        assert stmt.table == "T"


class TestErrors:
    def test_missing_from(self):
        with pytest.raises(SqlError, match="expected FROM"):
            parse("SELECT *")

    def test_trailing_garbage(self):
        with pytest.raises(SqlError, match="trailing"):
            parse("SELECT * FROM T extra")

    def test_bad_condition(self):
        with pytest.raises(SqlError, match="expected IN, BETWEEN"):
            parse("SELECT * FROM T WHERE price")

    def test_in_without_parens(self):
        with pytest.raises(SqlError):
            parse("SELECT * FROM T WHERE city IN 'a'")

    def test_between_missing_and(self):
        with pytest.raises(SqlError):
            parse("SELECT * FROM T WHERE price BETWEEN 1 2")

    def test_non_literal_in_list(self):
        with pytest.raises(SqlError, match="expected a literal"):
            parse("SELECT * FROM T WHERE city IN (foo)")

    def test_empty_input(self):
        with pytest.raises(SqlError):
            parse("")

    def test_error_points_at_the_start_of_the_culprit(self):
        # The second literal starts at offset 30; the error must say so,
        # not point past it.
        source = "SELECT * FROM T WHERE a = 'x' 'y'"
        with pytest.raises(SqlError, match="trailing") as caught:
            parse(source)
        assert caught.value.position == 30
        assert source[caught.value.position :] == "'y'"

    def test_keyword_error_position(self):
        with pytest.raises(SqlError, match="expected FROM") as caught:
            parse("SELECT * WHERE")
        assert caught.value.position == 9
