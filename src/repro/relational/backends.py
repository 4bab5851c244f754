"""The column store behind every :class:`~repro.relational.table.Table`.

:class:`ColumnStore` owns the physical column representation; the
``Table`` keeps the schema, coercion and the ``RowSet`` algebra, and
delegates storage to it.  Every column starts dictionary-encoded
(:class:`DictColumn`): each distinct value is stored once in a decode
list, and the column itself is an ``array`` of integer codes sized to its
dictionary, 1 byte per row up to 256 distinct values and 2 up to 65,536
(:func:`code_typecode`).  NULL is a dictionary value like any other.  An
INT or FLOAT column whose dictionary would pass
:data:`NUMERIC_DICTIONARY_CAP` converts once, for good, to a raw
:class:`NumericColumn`: an ``array('q')`` / ``array('d')`` of 8-byte
values plus a set of NULL positions.

The payoff is **column-at-a-time selection**: instead of asking
``predicate.matches(row)`` once per row (a Python call plus a dict-protocol
lookup each), :meth:`ColumnStore.select_indices` evaluates one conjunct
over the whole candidate index list as a single list comprehension.  On a
coded column each conjunct (IN, comparison, range, IS NULL) is first
evaluated once per dictionary entry into a per-code match table, and the
comprehension reads one small code per row; a raw column compares its
packed values.  The store chooses one of two access paths:

* **index first**: on a whole-table view, the store counts each ``IN``
  conjunct on a CATEGORICAL attribute exactly, from that attribute's
  whole-table value counts (:meth:`ColumnStore.tally`).  When the
  smallest count is below :data:`INDEX_CROSSOVER` of the table, the other
  conjuncts filter only that conjunct's posting lists
  (:meth:`ColumnStore.groupby`), and the survivors are merged into
  ascending order.  If any other conjunct cannot be vectorized, the store
  drops this path and scans instead.
* **scan**: conjuncts are applied in order, each narrowing the candidate
  list, which preserves the row-at-a-time engine's left-to-right
  short-circuit semantics exactly.  Any conjunct the store cannot vectorize
  (e.g. a range over a TEXT column, which must raise ``TypeError`` exactly
  like the row path) is handed back to the caller as a *leftover*
  predicate to evaluate row-at-a-time over the already-narrowed
  candidates.

On a whole-table view both paths return the same positions in ascending
order, so the choice never changes semantics, only speed.

Numeric bucketing (:meth:`ColumnStore.bucket_numeric`) and value counts
(:meth:`ColumnStore.count_values`) work by code too: one ``bisect`` per
dictionary entry instead of one per row, and one count per code, decoded
once per distinct value.

Limits: INT values are checked against 64-bit storage in either layout,
so ints outside ``[-2**63, 2**63)`` raise ``OverflowError``; both
``append_row`` and ``load_columns`` then leave the store as it was.
"""

from __future__ import annotations

import bisect
import math
from array import array
from collections import Counter
from itertools import chain
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    Sequence,
)

from repro import perf
from repro.relational.expressions import (
    ComparisonPredicate,
    Conjunction,
    InPredicate,
    IsNullPredicate,
    Predicate,
    RangePredicate,
    TruePredicate,
    comparison_operator,
)
from repro.relational.schema import TableSchema
from repro.relational.snapio import (
    Container,
    SnapshotMismatch,
    base_manifest,
    write_container,
)
from repro.relational.types import AttributeKind, DataType

#: A categorical ``IN`` seeds a whole-table selection from its posting
#: lists when they hold fewer than this share of the table's rows.  The
#: index path walks those postings, then sorts what survives; a scan walks
#: the whole table for its first conjunct.  On 500,000 rows (2-vCPU Xeon,
#: Python 3.11, median of 7) index/scan time read 0.83-0.91 at 70-72 % of
#: the table whether the IN stood alone, first or after a price range, and
#: 0.96-1.13 at 80 %.
INDEX_CROSSOVER = 0.7

#: An INT or FLOAT column stays dictionary-coded while its dictionary holds
#: at most this many values (NULL and NaN count one each); the write that
#: would pass it converts the column, for good, to raw 8-byte storage.  A
#: dictionary entry costs ~100 B (tracemalloc: INT 107, FLOAT 99) beside
#: the 6 B per row that 2-byte codes save over raw values, so at the cap a
#: dictionary costs what ~70 k rows save, and a per-code bucket table over
#: it (0.62 ms) what bisecting ~3 k rows costs (2-vCPU Xeon, Python 3.11).
#: Every generated homes column stays coded at any scale (price, the
#: widest, holds at most 995 values, 5 K steps from 30 K to 5 M); the
#: movies generator's ``votes`` (12,687 values in 20,000 rows) goes raw.
NUMERIC_DICTIONARY_CAP = 4096

#: The raw value typecode of the INT and FLOAT columns.
_VALUE_TYPECODES = {DataType.INT: "q", DataType.FLOAT: "d"}

#: Per-operator filters over a raw numeric column without NULLs: one list
#: comprehension each, so no Python call is made per row.
_NUMERIC_COMPARISONS = {
    "<": lambda data, indices, value: [i for i in indices if data[i] < value],
    "<=": lambda data, indices, value: [i for i in indices if data[i] <= value],
    ">": lambda data, indices, value: [i for i in indices if data[i] > value],
    ">=": lambda data, indices, value: [i for i in indices if data[i] >= value],
    "=": lambda data, indices, value: [i for i in indices if data[i] == value],
    "!=": lambda data, indices, value: [i for i in indices if data[i] != value],
}

#: Dictionary keys of the two FLOAT values a dict cannot key by value:
#: NaN (every NaN object would get an entry of its own, as NaN != NaN) and
#: -0.0 (it would share 0.0's, as -0.0 == 0.0).  Each decodes to the value
#: it maps to here, so every NaN reads back as ``math.nan``.
_NAN_KEY = object()
_NEGATIVE_ZERO_KEY = object()
_SPECIAL_FLOATS = {_NAN_KEY: math.nan, _NEGATIVE_ZERO_KEY: -0.0}

#: A filter of candidate positions for one conjunct.
Filter = Callable[[Sequence[int]], Sequence[int]]


def require_columnar(name: str) -> None:
    """Refuse every storage name but ``"columnar"``, the only layout.

    ``read_csv``, ``generate_homes`` and a dataset spec's ``backend`` key
    still take the name, for callers written when a second layout
    existed; any other value is an error.
    """
    if name != "columnar":
        raise ValueError(
            f"unknown storage backend {name!r}; the only one is 'columnar'"
        )


def index_typecode(rows: int) -> str:
    """The ``array`` typecode for row positions of a ``rows``-row table.

    ``'i'`` packs a position in 4 bytes; only a table of 2**31 rows or more
    needs ``'q'``.
    """
    return "i" if rows < 2**31 else "q"


def code_typecode(size: int) -> str:
    """The ``array`` typecode for codes into a ``size``-entry dictionary.

    ``'B'`` (1 byte per row) up to 256 entries, ``'H'`` (2 bytes) up to
    65,536 and ``'I'`` (4 bytes) past that.
    """
    if size <= 256:
        return "B"
    if size <= 65_536:
        return "H"
    return "I"


def _float_key(value: Any) -> Any:
    """A FLOAT column's dictionary key for ``value`` (see _SPECIAL_FLOATS)."""
    if value != value:
        return _NAN_KEY
    if value == 0 and math.copysign(1.0, value) < 0:
        return _NEGATIVE_ZERO_KEY
    return value


def _merge_nan_keys(groups: dict, merge: Callable[[list], Any]) -> None:
    """Fold every NaN key of ``groups`` into one ``math.nan`` key, in place."""
    nans = [key for key in groups if key != key]
    if nans:
        groups[math.nan] = merge([groups.pop(key) for key in nans])


class _DictionaryFull(Exception):
    """A write would take a numeric column's dictionary past the cap."""


class NumericColumn:
    """A raw numeric column: an ``array`` plus a set of NULL positions.

    The layout of an INT or FLOAT column past
    :data:`NUMERIC_DICTIONARY_CAP`.  The array holds ``0`` at NULL
    positions (a sentinel that keeps the array dense); the ``nulls`` set is
    authoritative.  Most columns have no NULLs, and every read path
    branches on ``nulls`` being empty so the common case pays nothing for
    the side structure.
    """

    __slots__ = ("_data", "_nulls")

    typecode = "d"

    def __init__(self) -> None:
        self._data: array = array(self.typecode)
        self._nulls: set[int] = set()

    # -- writes ------------------------------------------------------------

    def append(self, value: Any) -> None:
        if value is None:
            self._nulls.add(len(self._data))
            self._data.append(0)
        else:
            self._data.append(value)

    def extend(self, values: Sequence[Any]) -> None:
        data = self._data
        base = len(data)
        try:
            data.extend(values)
        except (TypeError, OverflowError):
            # A None (or an unpackable value) somewhere in the batch:
            # undo the partial extend and take the per-value path.
            del data[base:]
            for value in values:
                self.append(value)

    def truncate(self, length: int) -> None:
        """Drop every value from position ``length`` on (write rollback)."""
        self._nulls.difference_update(range(length, len(self._data)))
        del self._data[length:]

    # -- reads -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._data)

    def __getitem__(self, position: int) -> Any:
        if position < 0:
            position += len(self._data)
        if position in self._nulls:
            return None
        return self._data[position]

    def __iter__(self) -> Iterator[Any]:
        if not self._nulls:
            return iter(self._data)
        nulls = self._nulls
        return (
            None if i in nulls else v for i, v in enumerate(self._data)
        )

    def gather(self, indices: Sequence[int]) -> list[Any]:
        data = self._data
        if not self._nulls:
            return [data[i] for i in indices]
        nulls = self._nulls
        return [None if i in nulls else data[i] for i in indices]

    def count(self, indices: Sequence[int]) -> dict[Any, int]:
        """value -> how many of ``indices`` hold it, NULLs under ``None``
        and every NaN under ``math.nan``."""
        if self._nulls:
            counts = Counter(self.gather(indices))
        else:
            counts = Counter(map(self._data.__getitem__, indices))
        if self.typecode == "d":
            _merge_nan_keys(counts, sum)
        return counts

    def postings(self) -> dict[Any, array]:
        """value -> ascending positions, NULLs under ``None`` and every
        NaN under ``math.nan``; see :meth:`ColumnStore.groupby`."""
        buckets: dict[Any, list[int]] = {}
        for position, value in enumerate(self):
            buckets.setdefault(value, []).append(position)
        if self.typecode == "d":
            _merge_nan_keys(buckets, lambda lists: sorted(chain(*lists)))
        typecode = index_typecode(len(self._data))
        return {value: array(typecode, ids) for value, ids in buckets.items()}


class IntColumn(NumericColumn):
    """Raw 64-bit signed integer column."""

    __slots__ = ()
    typecode = "q"


class FloatColumn(NumericColumn):
    """Raw IEEE double column."""

    __slots__ = ()
    typecode = "d"


_RAW_COLUMNS: dict[str, type[NumericColumn]] = {"q": IntColumn, "d": FloatColumn}


class DictColumn:
    """A dictionary-encoded column: every TEXT and BOOL column, and every
    INT or FLOAT column up to :data:`NUMERIC_DICTIONARY_CAP` values.

    Values are interned once into ``decode`` (code -> value) and
    ``encode`` (key -> code); the column itself is an ``array`` of codes
    of :func:`code_typecode`, widened once each time the dictionary
    outgrows a width.  NULL is a dictionary value like any other: ``None``
    gets a code when the column first holds a NULL.

    ``value_typecode`` is the raw typecode (``'q'`` or ``'d'``) of an INT
    or FLOAT column and ``None`` for TEXT and BOOL.  A numeric column
    admits a new value only if the raw layout would, and stores what the
    raw layout would read back (``1.0`` for a FLOAT ``1``).  A FLOAT
    column gives every NaN one code, decoded as ``math.nan``, and keeps
    -0.0 apart from 0.0, so each row reads back its sign.
    """

    __slots__ = ("_codes", "_decode", "_encode", "value_typecode")

    def __init__(self, value_typecode: str | None = None) -> None:
        self._codes: array = array("B")
        self._decode: list[Any] = []
        self._encode: dict[Any, int] = {}
        self.value_typecode = value_typecode

    # -- writes ------------------------------------------------------------

    def extend(self, values: Sequence[Any]) -> None:
        """Append ``values`` in C-level passes: one maps every value to its
        code and, when that meets a value not in the dictionary yet,
        ``dict.fromkeys`` finds the new ones to intern before mapping again.

        A FLOAT value a dict cannot key by value (NaN, or a zero while
        the dictionary holds one) sends its batch through
        :func:`_float_key`, one call per value.  Raises
        :class:`_DictionaryFull`, appending nothing, when a numeric
        column's dictionary would pass :data:`NUMERIC_DICTIONARY_CAP`.
        """
        encode = self._encode
        floats = self.value_typecode == "d"
        if (
            floats
            and (0.0 in encode or _NEGATIVE_ZERO_KEY in encode)
            and 0.0 in values
        ):
            values = list(map(_float_key, values))
        try:
            codes = list(map(encode.__getitem__, values))
        except KeyError:
            fresh = [key for key in dict.fromkeys(values) if key not in encode]
            if floats and any(key != key or key == 0 for key in fresh):
                values = list(map(_float_key, values))
                fresh = [key for key in dict.fromkeys(values) if key not in encode]
            self._intern(fresh)
            codes = list(map(encode.__getitem__, values))
        self._codes.fromlist(codes)

    def _intern(self, fresh: list[Any]) -> None:
        """Give every key of ``fresh`` (none in the dictionary yet) a code."""
        decode = self._decode
        stored = [_SPECIAL_FLOATS.get(key, key) for key in fresh]
        if self.value_typecode is not None:
            if len(decode) + len(stored) > NUMERIC_DICTIONARY_CAP:
                raise _DictionaryFull
            # Refuse what the raw layout refuses (a TypeError, or an
            # OverflowError past int64), and store what it would read back.
            array(self.value_typecode, [v for v in stored if v is not None])
            convert = float if self.value_typecode == "d" else int
            stored = [None if v is None else convert(v) for v in stored]
        base = len(decode)
        decode.extend(stored)
        self._encode.update(zip(fresh, range(base, len(decode))))
        typecode = code_typecode(len(decode))
        if typecode != self._codes.typecode:
            self._codes = array(typecode, self._codes)

    def truncate(self, length: int) -> None:
        """Drop every value from position ``length`` on (write rollback);
        dictionary entries stay."""
        del self._codes[length:]

    def raw(self) -> NumericColumn:
        """This INT or FLOAT column's values in the raw layout."""
        column = _RAW_COLUMNS[self.value_typecode]()
        packed = [0 if value is None else value for value in self._decode]
        column._data = array(column.typecode, map(packed.__getitem__, self._codes))
        null = self._encode.get(None)
        if null is not None:
            column._nulls = {
                position
                for position, code in enumerate(self._codes)
                if code == null
            }
        return column

    def _adopt(self, codes: array, decode: list[Any]) -> None:
        """Take a snapshot's codes and decode list, and rebuild ``encode``."""
        keys: Iterable[Any] = decode
        if self.value_typecode == "d":
            decode = [math.nan if value != value else value for value in decode]
            keys = map(_float_key, decode)
        self._codes = codes
        self._decode = decode
        self._encode = {key: code for code, key in enumerate(keys)}

    # -- reads -------------------------------------------------------------

    @property
    def cardinality(self) -> int:
        """Number of distinct non-NULL values ever stored."""
        return len(self._decode) - (None in self._encode)

    def code_of(self, value: Any) -> int | None:
        """The code for ``value``, or None if it never occurs."""
        if self.value_typecode == "d":
            value = _float_key(value)
        return self._encode.get(value)

    def codes_in(self, values: Iterable[Any]) -> set[int]:
        """The codes an IN-set of ``values`` selects, as a row-at-a-time IN
        compares: a ``None`` selects NULL, NaN selects nothing, and 0.0 and
        -0.0 select each other."""
        encode = self._encode
        wanted = {encode.get(value) for value in values if value == value}
        if self.value_typecode == "d" and any(value == 0 for value in values):
            wanted.add(encode.get(0.0))
            wanted.add(encode.get(_NEGATIVE_ZERO_KEY))
        wanted.discard(None)
        return wanted

    def __len__(self) -> int:
        return len(self._codes)

    def __getitem__(self, position: int) -> Any:
        return self._decode[self._codes[position]]

    def __iter__(self) -> Iterator[Any]:
        return map(self._decode.__getitem__, self._codes)

    def gather(self, indices: Sequence[int]) -> list[Any]:
        codes = self._codes
        decode = self._decode
        return [decode[codes[i]] for i in indices]

    def count(self, indices: Sequence[int]) -> dict[Any, int]:
        """value -> how many of ``indices`` hold it, NULLs under ``None``.

        Counts codes, then decodes once per distinct value; 0.0 and -0.0
        add up under one key, as a dict merges them.
        """
        decode = self._decode
        counted = Counter(map(self._codes.__getitem__, indices)).items()
        counts = {decode[code]: n for code, n in counted}
        if len(counts) < len(counted):
            counts = {}
            for code, n in counted:
                counts[decode[code]] = counts.get(decode[code], 0) + n
        return counts

    def postings(self) -> dict[Any, array]:
        """value -> ascending positions, NULLs under ``None``; see
        :meth:`ColumnStore.groupby`.  Buckets by code (list indexing, no
        hashing), then decodes once per distinct value."""
        positions: list[list[int]] = [[] for _ in self._decode]
        appends = [ids.append for ids in positions]
        for position, code in enumerate(self._codes):
            appends[code](position)
        typecode = index_typecode(len(self._codes))
        index: dict[Any, array] = {}
        for value, ids in zip(self._decode, positions):
            if ids:
                if value in index:  # -0.0 beside 0.0: one key, as in a dict
                    ids = sorted(chain(index[value], ids))
                index[value] = array(typecode, ids)
        return index

    def matches(self, test: Callable[[Any], bool]) -> list[bool]:
        """``test(value)`` per code, False for NULL's: the per-code table
        a range or comparison filters by.  Raises what ``test`` raises."""
        return [value is not None and test(value) for value in self._decode]


def schema_fingerprint(schema: TableSchema) -> list[list[str]]:
    """JSON-stable identity of a schema: ``[name, type, kind]`` per attribute.

    Stored inside every warm-start snapshot and compared on load — a
    snapshot written for a different relation (or a relation whose
    declaration changed since) must fall back to cold start, not be
    reinterpreted.
    """
    return [
        [attribute.name, attribute.data_type.value, attribute.kind.value]
        for attribute in schema
    ]


class ColumnStore:
    """Typed-array storage with column-at-a-time selection.

    All values crossing its methods are already schema-coerced; the store
    never validates, it only packs.  Row positions are dense ``0..n-1`` in
    insertion order and never change (the engine is append-only).  The
    store also keeps each attribute's posting lists (:meth:`groupby`) and
    whole-table value counts (:meth:`tally`) once built; every write drops
    them.
    """

    def __init__(self, schema: TableSchema) -> None:
        self._columns: dict[str, NumericColumn | DictColumn] = {
            attribute.name: DictColumn(_VALUE_TYPECODES.get(attribute.data_type))
            for attribute in schema
        }
        self._categorical = frozenset(
            attribute.name
            for attribute in schema
            if attribute.kind is AttributeKind.CATEGORICAL
        )
        self._postings: dict[str, dict[Any, array]] = {}
        self._tallies: dict[str, dict[Any, int]] = {}

    def __len__(self) -> int:
        return len(next(iter(self._columns.values()), ()))

    def column(self, name: str) -> NumericColumn | DictColumn:
        """The full column as a sequence of logical values (NULL -> None)."""
        return self._columns[name]

    # int64 overflow is the one write failure coercion does not catch
    # first.  Both writes roll back to the previous length before
    # re-raising, so a refused row or batch never tears the columns.

    def append_row(self, values: Sequence[Any]) -> None:
        """Append one coerced tuple, given in schema attribute order.

        Atomic: a failure (e.g. int64 overflow) leaves no column torn.
        """
        rows = len(self)
        try:
            for name, value in zip(self._columns, values):
                self._write(name, (value,))
        except BaseException as exc:
            self._truncate(rows)
            if isinstance(exc, OverflowError):
                raise OverflowError(
                    f"attribute {name!r}: {value!r} is outside the int64 "
                    "range of a columnar INT column"
                ) from exc
            raise
        self._written()

    def load_columns(self, columns: Mapping[str, Sequence[Any]]) -> None:
        """Bulk-append one coerced sequence per attribute (equal lengths).

        All or nothing, like :meth:`append_row`: a failure leaves every
        column as it was.
        """
        rows = len(self)
        try:
            for name in self._columns:
                self._write(name, columns[name])
        except BaseException:
            self._truncate(rows)
            raise
        self._written()

    def _write(self, name: str, values: Sequence[Any]) -> None:
        column = self._columns[name]
        try:
            column.extend(values)
        except _DictionaryFull:
            column = self._columns[name] = column.raw()
            column.extend(values)

    def _written(self) -> None:
        self._postings.clear()
        self._tallies.clear()

    def _truncate(self, length: int) -> None:
        for column in self._columns.values():
            column.truncate(length)

    def gather(self, name: str, indices: Sequence[int]) -> list[Any]:
        """The column's logical values at ``indices``, in that order."""
        return self._columns[name].gather(indices)

    def groupby(self, name: str) -> dict[Any, array]:
        """value -> ascending row positions, NULLs under the ``None`` key.

        Each posting list is packed as an ``array`` of
        :func:`index_typecode`.  Keys merge as a dict's do: every NaN under
        ``math.nan``, and 0.0 with -0.0.  Built with one column scan on
        first use, then kept until the next write; callers must not mutate
        it.
        """
        index = self._postings.get(name)
        if index is None:
            perf.count("table.groupby_index.build")
            with perf.span("table.groupby_index.build"):
                index = self._postings[name] = self._columns[name].postings()
        else:
            perf.count("table.groupby_index.hit")
        return index

    def count_values(self, name: str, indices: Sequence[int]) -> dict[Any, int]:
        """value -> how many of ``indices`` hold it, NULLs under ``None``.

        Keys merge as :meth:`groupby`'s do.
        """
        return self._columns[name].count(indices)

    def tally(self, name: str) -> Mapping[Any, int]:
        """value -> how many rows of the whole table hold it.

        :meth:`count_values` over every row, counted once and kept until
        the next write like the posting lists: it tells how many rows an
        IN-set selects without building them.  Callers must not mutate it.
        """
        tally = self._tallies.get(name)
        if tally is None:
            tally = self._tallies[name] = self.count_values(
                name, range(len(self))
            )
        return tally

    # -- warm-start persistence --------------------------------------------

    #: Bump when the block layout below changes: older snapshots then
    #: fail stop (``reason="version"``) instead of being misread.
    FORMAT_VERSION = 2

    def dump(
        self,
        schema: TableSchema,
        path: Any,
        rename_hook: Any = None,
    ) -> None:
        """Serialize the typed arrays + dictionaries to one snapshot file.

        The on-disk form is a :mod:`repro.relational.snapio` container:
        raw ``array.tobytes()`` payloads per column (dictionary codes, or
        a raw column's values and null positions) plus a JSON manifest
        carrying the schema fingerprint, row count, and each coded
        column's code typecode and decode list.  Loading is therefore a
        handful of ``frombytes`` memcpys — the whole point of warm start
        is to skip per-value coercion.
        """
        rows = len(self)
        manifest = base_manifest("columnstore", self.FORMAT_VERSION)
        manifest["table"] = schema.name
        manifest["schema"] = schema_fingerprint(schema)
        manifest["rows"] = rows
        columns: list[dict[str, Any]] = []
        blocks: list[tuple[str, bytes]] = []
        for name in schema.names():
            column = self._columns[name]
            if isinstance(column, DictColumn):
                columns.append(
                    {
                        "name": name,
                        "layout": "dict",
                        "typecode": column._codes.typecode,
                        "decode": column._decode,
                    }
                )
                blocks.append((f"col:{name}", column._codes.tobytes()))
            else:
                entry = {"name": name, "layout": "num",
                         "typecode": column.typecode}
                blocks.append((f"col:{name}", column._data.tobytes()))
                if column._nulls:
                    entry["nulls"] = True
                    blocks.append(
                        (f"nulls:{name}",
                         array("q", sorted(column._nulls)).tobytes())
                    )
                columns.append(entry)
        manifest["columns"] = columns
        write_container(path, manifest, blocks, rename_hook=rename_hook)

    @classmethod
    def load(cls, schema: TableSchema, path: Any) -> tuple["ColumnStore", int]:
        """Rebuild a store from :meth:`dump` output; return (store, rows).

        Every CRC is verified by the container open and the manifest's
        schema fingerprint must match ``schema`` exactly — any mismatch
        raises :class:`~repro.relational.snapio.SnapshotMismatch`, which
        the serving layer turns into a counted cold-start fallback
        (never serve corrupt state).
        """
        with Container(path) as container:
            manifest = container.manifest
            if manifest.get("kind") != "columnstore":
                raise SnapshotMismatch(
                    f"{path}: not a columnstore snapshot "
                    f"(kind={manifest.get('kind')!r})",
                    reason="format",
                )
            if manifest.get("version") != cls.FORMAT_VERSION:
                raise SnapshotMismatch(
                    f"{path}: columnstore format version "
                    f"{manifest.get('version')} (this build reads "
                    f"{cls.FORMAT_VERSION})",
                    reason="version",
                )
            if manifest.get("schema") != schema_fingerprint(schema):
                raise SnapshotMismatch(
                    f"{path}: snapshot schema does not match "
                    f"{schema.name!r}",
                    reason="schema",
                )
            rows = manifest.get("rows")
            if not isinstance(rows, int) or rows < 0:
                raise SnapshotMismatch(
                    f"{path}: bad row count {rows!r}", reason="format"
                )
            store = cls(schema)
            entries = {
                entry.get("name"): entry
                for entry in manifest.get("columns", [])
            }
            for name in schema.names():
                entry = entries.get(name)
                if entry is None:
                    raise SnapshotMismatch(
                        f"{path}: column {name!r} missing", reason="schema"
                    )
                column = store._columns[name]
                block = container.block(f"col:{name}")
                if entry.get("layout") == "dict":
                    decode = list(entry.get("decode", []))
                    typecode = entry.get("typecode")
                    if typecode != code_typecode(len(decode)):
                        raise SnapshotMismatch(
                            f"{path}: column {name!r} has code typecode "
                            f"{typecode!r} for {len(decode)} values",
                            reason="format",
                        )
                    codes = array(typecode)
                    codes.frombytes(block)
                    column._adopt(codes, decode)
                    if len(column._encode) != len(decode) or (
                        codes and max(codes) >= len(decode)
                    ):
                        raise SnapshotMismatch(
                            f"{path}: column {name!r} has codes outside "
                            "its dictionary",
                            reason="format",
                        )
                elif entry.get("layout") == "num":
                    if (
                        column.value_typecode is None
                        or entry.get("typecode") != column.value_typecode
                    ):
                        raise SnapshotMismatch(
                            f"{path}: column {name!r} layout mismatch",
                            reason="schema",
                        )
                    column = _RAW_COLUMNS[column.value_typecode]()
                    store._columns[name] = column
                    column._data.frombytes(block)
                    if entry.get("nulls"):
                        positions = array("q")
                        positions.frombytes(container.block(f"nulls:{name}"))
                        column._nulls = set(positions)
                else:
                    raise SnapshotMismatch(
                        f"{path}: column {name!r} has unknown layout "
                        f"{entry.get('layout')!r}",
                        reason="format",
                    )
                if len(column) != rows:
                    raise SnapshotMismatch(
                        f"{path}: column {name!r} holds {len(column)} "
                        f"values, manifest says {rows}",
                        reason="format",
                    )
            return store, rows

    # -- column-at-a-time selection ----------------------------------------

    def select_indices(
        self, predicate: Predicate, indices: Sequence[int]
    ) -> tuple[Sequence[int], Predicate | None]:
        """Filter ``indices`` by ``predicate``, column-at-a-time.

        Returns ``(narrowed, leftover)``, where ``leftover`` is the suffix
        of conjuncts the store could not vectorize (``None`` when fully
        evaluated).  The caller must apply ``leftover`` row-at-a-time over
        ``narrowed`` to finish the selection.  ``narrowed`` keeps the order
        of ``indices``.
        """
        parts = (
            predicate.parts
            if isinstance(predicate, Conjunction)
            else (predicate,)
        )
        if isinstance(indices, range) and indices == range(len(self)):
            seeded = self._select_from_postings(parts)
            if seeded is not None:
                perf.count("select.index_path")
                return seeded, None
        perf.count("select.scan_path")
        current: Sequence[int] = indices
        for position, part in enumerate(parts):
            if not len(current):
                return current, None
            keep = self._filter(part)
            if keep is None:
                # Hand the un-vectorizable suffix back, preserving the
                # row engine's left-to-right evaluation order (and thus
                # which rows ever see a type-error-raising conjunct).
                remaining = parts[position:]
                leftover = (
                    remaining[0]
                    if len(remaining) == 1
                    else Conjunction(remaining)
                )
                return current, leftover
            current = keep(current)
        return current, None

    def _select_from_postings(
        self, parts: Sequence[Predicate]
    ) -> Sequence[int] | None:
        """The whole table's matches, seeded from one categorical IN.

        Counts each categorical ``IN`` conjunct from its attribute's
        :meth:`tally`, picks the one that selects the fewest rows, filters
        the other conjuncts over each of its posting lists, and merges the
        survivors into ascending order, so nothing larger than one
        filtered posting list is ever held.  Only that attribute's
        posting lists are built.  A lone posting list with nothing else
        to filter is the answer as it is.

        None (scan instead) when no such conjunct stays under
        :data:`INDEX_CROSSOVER`, or when another conjunct cannot be
        vectorized: its row-at-a-time evaluation must see the rows the
        left-to-right scan shows it.  Every conjunct is checked, even
        when no candidate is left, because whether a filter vectorizes
        never depends on the rows it is given.
        """
        best: tuple[int, int, list[Any]] | None = None
        for position, part in enumerate(parts):
            if not (
                isinstance(part, InPredicate)
                and part.attribute in self._categorical
            ):
                continue
            # NaN selects nothing; a NULL in the IN-set selects the NULL
            # rows, as ``None in values`` matches a NULL row-side.
            values = [value for value in part.values if value == value]
            tally = self.tally(part.attribute)
            count = sum(tally.get(value, 0) for value in values)
            if best is None or count < best[0]:
                best = (count, position, values)
        if best is None or best[0] >= INDEX_CROSSOVER * len(self):
            return None
        count, position, values = best
        others = [
            self._filter(part)
            for part in parts[:position] + parts[position + 1:]
        ]
        if None in others:
            return None
        if not count:
            return []
        index = self.groupby(parts[position].attribute)
        matches: list[Sequence[int]] = []
        for candidates in [index[value] for value in values if value in index]:
            for keep in others:
                candidates = keep(candidates)
            matches.append(candidates)
        if len(matches) == 1:
            return matches[0]
        return sorted(chain.from_iterable(matches))

    def _filter(self, predicate: Predicate) -> Filter | None:
        """The filter of candidate positions for one conjunct, or None when
        the store cannot vectorize it (which never depends on the rows).

        A coded column evaluates the conjunct once per dictionary entry
        here, so applying the filter reads one code per row.
        """
        if isinstance(predicate, TruePredicate):
            return list
        if not isinstance(
            predicate,
            (InPredicate, RangePredicate, ComparisonPredicate, IsNullPredicate),
        ):
            return None
        column = self._columns.get(predicate.attribute)
        if column is None:
            return None
        if isinstance(column, DictColumn):
            match = _code_matches(column, predicate)
            if match is None:
                return None
            if not any(match):
                return lambda indices: []
            codes = column._codes
            return lambda indices: [i for i in indices if match[codes[i]]]
        return _raw_filter(column, predicate)

    def bucket_numeric(
        self, name: str, indices: Sequence[int], boundaries: Sequence[float]
    ) -> tuple[list[list[int]], int]:
        """Bucket ``indices`` by ascending ``boundaries`` over one column.

        Bucket ``k`` holds rows with ``boundaries[k] <= value <
        boundaries[k+1]`` (the last bucket closes at ``boundaries[-1]``);
        NULLs, non-finite values (NaN / ±inf), and out-of-range values are
        dropped and counted.  Returns the per-bucket index lists plus the
        dropped count.
        """
        column = self._columns[name]
        low, high = boundaries[0], boundaries[-1]
        last = len(boundaries) - 2
        bisect_right = bisect.bisect_right
        isfinite = math.isfinite
        if (
            isinstance(column, DictColumn)
            and column.value_typecode is not None
            and len(indices) >= len(column._decode)
        ):
            # One bisect per dictionary entry, then one lookup per row.
            # The extra list after the last bucket collects dropped rows.
            # Capping bisect's hi at ``last + 1`` folds value ==
            # boundaries[-1] into the final (closed) bucket.
            drop = last + 1
            bucket_of = [
                bisect_right(boundaries, value, 0, drop) - 1
                if value is not None and isfinite(value) and low <= value <= high
                else drop
                for value in column._decode
            ]
            lists: list[list[int]] = [[] for _ in range(drop + 1)]
            appends = [ids.append for ids in lists]
            codes = column._codes
            for i in indices:
                appends[bucket_of[codes[i]]](i)
            dropped = len(lists.pop())
            return lists, dropped
        buckets: list[list[int]] = [[] for _ in range(last + 1)]
        dropped = 0
        if isinstance(column, DictColumn) or not all(
            map(isfinite, boundaries)
        ):
            # A dictionary column with fewer rows to bucket than entries,
            # or a BOOL or TEXT attribute declared NUMERIC: gather and
            # classify each value.  Non-finite boundaries take the same
            # guarded path, since they would let NaN/±inf values through
            # the range guard and into bisect (whose order is undefined
            # for them).  With finite boundaries — every real workload —
            # the ``low <= value <= high`` guard below already drops
            # non-finite values at zero extra cost.
            for i, value in zip(indices, column.gather(indices)):
                if value is not None and isfinite(value) and low <= value <= high:
                    buckets[bisect_right(boundaries, value, 0, last + 1) - 1].append(i)
                else:
                    dropped += 1
            return buckets, dropped
        data = column._data
        nulls = column._nulls
        if not nulls:
            for i in indices:
                value = data[i]
                if low <= value <= high:
                    buckets[bisect_right(boundaries, value, 0, last + 1) - 1].append(i)
                else:
                    dropped += 1
            return buckets, dropped
        for i in indices:
            if i in nulls:
                dropped += 1
                continue
            value = data[i]
            if low <= value <= high:
                buckets[bisect_right(boundaries, value, 0, last + 1) - 1].append(i)
            else:
                dropped += 1
        return buckets, dropped


def _code_matches(column: DictColumn, predicate: Predicate) -> list[bool] | None:
    """Per code, whether the conjunct holds for the value it decodes to;
    None when the store cannot vectorize the conjunct on this column."""
    if isinstance(predicate, (InPredicate, IsNullPredicate)):
        # IS NULL selects what IN (NULL) does.  The table is allocated at
        # C speed and marks only the codes named, whatever the dictionary.
        values = predicate.values if isinstance(predicate, InPredicate) else (None,)
        match = [False] * len(column._decode)
        for code in column.codes_in(values):
            match[code] = True
        return match
    if isinstance(predicate, RangePredicate):
        if column.value_typecode is None:
            # TEXT/BOOL ranges keep the row path's semantics (a str vs
            # float compare raises TypeError there; BOOL compares as int).
            return None
        low, high = predicate.low, predicate.high
        if predicate.high_inclusive:
            return column.matches(lambda value: low <= value <= high)
        return column.matches(lambda value: low <= value < high)
    op = comparison_operator(predicate.op)
    value = predicate.value
    try:
        return column.matches(lambda stored: op(stored, value))
    except TypeError:
        # The dictionary holds a value this comparison cannot order.  The
        # row path only raises if such a row is actually visited — fall
        # back so errors surface (or don't) exactly as before.
        return None


def _raw_filter(column: NumericColumn, predicate: Predicate) -> Filter | None:
    """The filter for one conjunct over a raw numeric column."""
    data = column._data
    nulls = column._nulls
    if isinstance(predicate, IsNullPredicate):
        return lambda indices: [i for i in indices if i in nulls]
    if isinstance(predicate, InPredicate):
        values = predicate.values
        if not nulls:
            return lambda indices: [i for i in indices if data[i] in values]
        null_matches = None in values
        return lambda indices: [
            i
            for i in indices
            if (null_matches if i in nulls else data[i] in values)
        ]
    if isinstance(predicate, RangePredicate):
        low, high = predicate.low, predicate.high
        if predicate.high_inclusive:
            def keep(indices):
                return [i for i in indices if low <= data[i] <= high]
        else:
            def keep(indices):
                return [i for i in indices if low <= data[i] < high]
    else:
        value = predicate.value
        if predicate.op not in ("=", "!=") and not isinstance(
            value, (int, float)
        ):
            return None  # ordering against a non-number raises row-side
        compare = _NUMERIC_COMPARISONS[predicate.op]

        def keep(indices):
            return compare(data, indices, value)
    if not nulls:
        return keep
    # A NULL matches no range or comparison, ``!=`` included.
    return lambda indices: keep([i for i in indices if i not in nulls])
