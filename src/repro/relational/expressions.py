"""Selection predicates over relations.

Two operations matter to the paper and both live here:

* **Evaluation** — does a tuple satisfy the predicate?  Used when executing
  user queries and when computing the tuple-set ``tset(C)`` of a category.
* **Overlap testing** — do two predicates on the *same attribute* admit a
  common value?  Paper Section 4.2 defines the exploration probability
  ``P(C)`` via the number of workload queries whose selection condition on
  the categorizing attribute *overlaps* the category label:

  - categorical: ``A IN {v1..vk}`` overlaps ``A IN B`` iff the value sets
    intersect;
  - numeric: ``vmin <= A <= vmax`` overlaps ``a1 <= A < a2`` iff the
    intervals intersect.

All predicates are immutable value objects; compound predicates
(:class:`Conjunction`) expose their per-attribute components so the workload
preprocessor can index them.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Sequence

_COMPARISON_OPERATORS: dict[str, Callable[[Any, Any], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "=": operator.eq,
    "!=": operator.ne,
}


def comparison_operator(op: str) -> Callable[[Any, Any], bool]:
    """Return the binary function implementing comparison ``op``.

    Shared by :class:`ComparisonPredicate` (row-at-a-time) and the
    column store's column-at-a-time matcher, so both paths agree on
    operator semantics by construction.
    """
    try:
        return _COMPARISON_OPERATORS[op]
    except KeyError:
        raise ValueError(f"unknown comparison operator {op!r}") from None


class Predicate:
    """Base class for all selection predicates.

    Subclasses implement :meth:`matches` on a mapping from attribute name to
    value (one tuple in dict form).
    """

    def matches(self, row: Mapping[str, Any]) -> bool:
        """Return True if the tuple ``row`` satisfies this predicate."""
        raise NotImplementedError

    def attributes(self) -> frozenset[str]:
        """Return the set of attribute names this predicate constrains."""
        raise NotImplementedError


@dataclass(frozen=True)
class TruePredicate(Predicate):
    """The always-true predicate (an unconstrained query)."""

    def matches(self, row: Mapping[str, Any]) -> bool:
        return True

    def attributes(self) -> frozenset[str]:
        return frozenset()

    def __str__(self) -> str:
        return "TRUE"


@dataclass(frozen=True)
class InPredicate(Predicate):
    """``attribute IN {values}`` — the categorical selection condition.

    The value collection is stored as a frozenset, so membership tests and
    overlap checks are O(1) / O(min(n, m)).
    """

    attribute: str
    values: frozenset[Any]

    def __init__(self, attribute: str, values: Sequence[Any]) -> None:
        object.__setattr__(self, "attribute", attribute)
        object.__setattr__(self, "values", frozenset(values))
        if not self.values:
            raise ValueError(f"IN predicate on {attribute!r} needs at least one value")

    def matches(self, row: Mapping[str, Any]) -> bool:
        return row.get(self.attribute) in self.values

    def attributes(self) -> frozenset[str]:
        return frozenset((self.attribute,))

    def overlaps(self, other: "InPredicate") -> bool:
        """True iff the two IN-sets share at least one value (Section 4.2)."""
        if self.attribute != other.attribute:
            return False
        small, large = sorted((self.values, other.values), key=len)
        return any(v in large for v in small)

    def __str__(self) -> str:
        rendered = ", ".join(repr(v) for v in sorted(self.values, key=repr))
        return f"{self.attribute} IN ({rendered})"


@dataclass(frozen=True)
class RangePredicate(Predicate):
    """``low <= attribute <(=) high`` — the numeric selection condition.

    The lower bound is always inclusive.  The upper bound is inclusive for
    workload-query ranges (``vmin <= A <= vmax`` in the paper) and exclusive
    for category labels (``a1 <= A < a2``); the flag records which.

    Either bound may be infinite, representing one-sided conditions such as
    ``Price < 1000000``.
    """

    attribute: str
    low: float
    high: float
    high_inclusive: bool = True

    def __post_init__(self) -> None:
        if math.isnan(self.low) or math.isnan(self.high):
            raise ValueError("range bounds may not be NaN")
        if self.low > self.high:
            raise ValueError(
                f"empty range on {self.attribute!r}: low {self.low} > high {self.high}"
            )

    def matches(self, row: Mapping[str, Any]) -> bool:
        value = row.get(self.attribute)
        if value is None:
            return False
        if self.high_inclusive:
            return self.low <= value <= self.high
        return self.low <= value < self.high

    def attributes(self) -> frozenset[str]:
        return frozenset((self.attribute,))

    def overlaps(self, other: "RangePredicate") -> bool:
        """True iff the two intervals admit a common value (Section 4.2).

        Respects each side's upper-bound inclusivity, so the category
        ``200K <= Price < 225K`` does *not* overlap the query
        ``225K <= Price <= 250K``.
        """
        if self.attribute != other.attribute:
            return False
        if not self._upper_reaches(other.low):
            return False
        if not other._upper_reaches(self.low):
            return False
        return True

    def _upper_reaches(self, point: float) -> bool:
        """True if this range extends to ``point`` or beyond."""
        if self.high_inclusive:
            return self.high >= point
        return self.high > point

    def width(self) -> float:
        """Return ``high - low`` (may be ``inf`` for one-sided ranges)."""
        return self.high - self.low

    def __str__(self) -> str:
        upper = "<=" if self.high_inclusive else "<"
        return f"{self.low} <= {self.attribute} {upper} {self.high}"


@dataclass(frozen=True)
class IsNullPredicate(Predicate):
    """``attribute IS NULL`` — matches exactly the tuples no selection
    condition can reach (conditions never match NULL, Section 3.1's label
    predicates included).  Exists so missing-value categories can express
    their tuple-set as a predicate like every other label."""

    attribute: str

    def matches(self, row: Mapping[str, Any]) -> bool:
        return row.get(self.attribute) is None

    def attributes(self) -> frozenset[str]:
        return frozenset((self.attribute,))

    def __str__(self) -> str:
        return f"{self.attribute} IS NULL"


@dataclass(frozen=True)
class ComparisonPredicate(Predicate):
    """A single comparison ``attribute op constant`` (op in <, <=, >, >=, =, !=).

    Comparisons are how one-sided conditions appear in raw SQL; they are
    normally normalized to :class:`RangePredicate` / :class:`InPredicate`
    by :func:`normalize`, but remain directly evaluable.
    """

    attribute: str
    op: str
    value: Any

    _OPS = ("<", "<=", ">", ">=", "=", "!=")

    def __post_init__(self) -> None:
        if self.op not in self._OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def matches(self, row: Mapping[str, Any]) -> bool:
        actual = row.get(self.attribute)
        if actual is None:
            return False
        return comparison_operator(self.op)(actual, self.value)

    def attributes(self) -> frozenset[str]:
        return frozenset((self.attribute,))

    def __str__(self) -> str:
        return f"{self.attribute} {self.op} {self.value!r}"


@dataclass(frozen=True)
class Conjunction(Predicate):
    """An AND of per-attribute predicates (the paper's SPJ WHERE clauses)."""

    parts: tuple[Predicate, ...]

    def __init__(self, parts: Sequence[Predicate]) -> None:
        flattened: list[Predicate] = []
        for part in parts:
            if isinstance(part, Conjunction):
                flattened.extend(part.parts)
            elif isinstance(part, TruePredicate):
                continue
            else:
                flattened.append(part)
        object.__setattr__(self, "parts", tuple(flattened))

    def matches(self, row: Mapping[str, Any]) -> bool:
        return all(part.matches(row) for part in self.parts)

    def attributes(self) -> frozenset[str]:
        names: set[str] = set()
        for part in self.parts:
            names |= part.attributes()
        return frozenset(names)

    def __iter__(self) -> Iterator[Predicate]:
        return iter(self.parts)

    def __str__(self) -> str:
        if not self.parts:
            return "TRUE"
        return " AND ".join(str(part) for part in self.parts)


def normalize(predicate: Predicate) -> Predicate:
    """Normalize a predicate into per-attribute In/Range conditions.

    Comparison predicates become one-sided ranges (``=`` on a non-numeric
    value becomes a one-element IN); multiple conditions on the same numeric
    attribute are intersected into a single range.  This is the canonical
    form the workload preprocessor consumes.

    Raises:
        ValueError: if conditions on one attribute are contradictory
            (e.g. ``Price > 100 AND Price < 50``) or mix kinds.
    """
    parts = list(predicate) if isinstance(predicate, Conjunction) else [predicate]
    by_attribute: dict[str, list[Predicate]] = {}
    for part in parts:
        if isinstance(part, TruePredicate):
            continue
        attrs = part.attributes()
        if len(attrs) != 1:
            raise ValueError(f"cannot normalize multi-attribute predicate {part}")
        by_attribute.setdefault(next(iter(attrs)), []).append(part)

    normalized: list[Predicate] = []
    for attribute in sorted(by_attribute):
        normalized.append(_merge_conditions(attribute, by_attribute[attribute]))
    if not normalized:
        return TruePredicate()
    if len(normalized) == 1:
        return normalized[0]
    return Conjunction(normalized)


def _merge_conditions(attribute: str, conditions: list[Predicate]) -> Predicate:
    """Merge all conditions on a single attribute into one In/Range predicate."""
    in_sets: list[frozenset[Any]] = []
    low, low_official = -math.inf, False
    high, high_inclusive = math.inf, True
    saw_range = False

    for condition in conditions:
        if isinstance(condition, InPredicate):
            in_sets.append(condition.values)
        elif isinstance(condition, RangePredicate):
            saw_range = True
            low = max(low, condition.low)
            high, high_inclusive = _tighter_upper(
                high, high_inclusive, condition.high, condition.high_inclusive
            )
        elif isinstance(condition, ComparisonPredicate):
            converted = _comparison_to_canonical(condition)
            if isinstance(converted, InPredicate):
                in_sets.append(converted.values)
            else:
                saw_range = True
                low = max(low, converted.low)
                high, high_inclusive = _tighter_upper(
                    high, high_inclusive, converted.high, converted.high_inclusive
                )
        else:
            raise ValueError(f"cannot normalize predicate {condition}")
        low_official = True

    if in_sets and saw_range:
        raise ValueError(
            f"attribute {attribute!r} mixes IN and range conditions; "
            "normalize cannot produce a single canonical condition"
        )
    if in_sets:
        merged = in_sets[0]
        for values in in_sets[1:]:
            merged &= values
        if not merged:
            raise ValueError(f"contradictory IN conditions on {attribute!r}")
        return InPredicate(attribute, sorted(merged, key=repr))
    if not low_official:
        return TruePredicate()
    if low > high or (low == high and not high_inclusive):
        raise ValueError(f"contradictory range conditions on {attribute!r}")
    return RangePredicate(attribute, low, high, high_inclusive=high_inclusive)


def _tighter_upper(
    high_a: float, inclusive_a: bool, high_b: float, inclusive_b: bool
) -> tuple[float, bool]:
    """Return the tighter of two upper bounds."""
    if high_b < high_a:
        return high_b, inclusive_b
    if high_b > high_a:
        return high_a, inclusive_a
    return high_a, inclusive_a and inclusive_b


def _comparison_to_canonical(
    comparison: ComparisonPredicate,
) -> InPredicate | RangePredicate:
    """Convert a comparison into the canonical In/Range form."""
    attribute, op, value = comparison.attribute, comparison.op, comparison.value
    if op == "=":
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return RangePredicate(attribute, float(value), float(value))
        return InPredicate(attribute, (value,))
    if op == "!=":
        raise ValueError(f"cannot normalize != condition on {attribute!r}")
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"range comparison on non-numeric value {value!r}")
    numeric = float(value)
    if op == "<":
        return RangePredicate(attribute, -math.inf, numeric, high_inclusive=False)
    if op == "<=":
        return RangePredicate(attribute, -math.inf, numeric, high_inclusive=True)
    if op == ">":
        # Strictly-greater lower bounds are approximated by nudging the bound
        # up by the smallest representable step; workload statistics only use
        # range *overlap*, for which this is exact on integer-grid data.
        return RangePredicate(attribute, math.nextafter(numeric, math.inf), math.inf)
    return RangePredicate(attribute, numeric, math.inf)
