"""CSV round-trip for tables.

Lets examples and tests persist synthetic datasets, and lets downstream
users load their own relations into the categorizer.  NULLs are written as
empty fields; types are restored from the schema on load.

Real exports are messier than our own round-trip: truncated lines, stray
delimiters, values that fail type coercion.  ``read_csv(strict=False)``
loads such files anyway, skipping each malformed row and accounting for it
in the labeled ``csv.bad_rows{reason=...}`` perf counter instead of
aborting the whole load — the posture a long-lived serving process needs
when refreshing its relation from an external feed.
"""

from __future__ import annotations

import csv
from itertools import islice
from pathlib import Path
from typing import Any, Sequence

from repro import perf
from repro.relational.backends import DEFAULT_BACKEND
from repro.relational.schema import Attribute, TableSchema
from repro.relational.table import Table
from repro.relational.types import DataType

#: Records read, transposed and converted per pass.  Large enough that the
#: per-chunk overhead vanishes, small enough that one chunk's rows and
#: converted columns — all a load holds besides the table — stay a few
#: megabytes.
CHUNK_ROWS = 4096

#: How a column pass parses non-empty text, by data type; ``None`` keeps
#: the text.  Each gives exactly what ``DataType.coerce`` gives a string.
_TEXT_PARSERS = {
    DataType.INT: int,
    DataType.FLOAT: float,
    DataType.TEXT: None,
    DataType.BOOL: DataType.BOOL.coerce,
}


def write_csv(table: Table, path: str | Path) -> None:
    """Write ``table`` to ``path`` with a header row.

    NULL values become empty fields.
    """
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        names = table.schema.names()
        writer.writerow(names)
        for row in table:
            writer.writerow(["" if row[n] is None else row[n] for n in names])


def read_csv(
    schema: TableSchema,
    path: str | Path,
    strict: bool = True,
    backend: str = DEFAULT_BACKEND,
) -> Table:
    """Load a CSV written by :func:`write_csv` (or compatible) into a Table.

    The header must contain every schema attribute; extra columns are
    ignored.  Empty fields become NULL; other fields are converted by the
    attribute's data type.  The file is read :data:`CHUNK_ROWS` records at
    a time: each chunk is transposed with ``zip(*rows)``, each of its
    columns converted in one pass (``int``, ``float``, or kept as text),
    and the converted columns appended to the table's backend through
    :meth:`Table.load_columns`.  A chunk that does not convert cleanly — a
    ragged row, an unparseable value, a NULL in a non-nullable column — or
    that the backend refuses (an INT outside int64 on the columnar
    backend) is inserted again row by row through :meth:`Table.insert`,
    so errors and skips name the exact record either way.

    Args:
        schema: the relation the file must conform to.
        path: the CSV file.
        strict: when True (the default), the first malformed row aborts
            the load with a ``ValueError`` naming ``path:line``, where line
            counts records from 1 at the header.  Rows shorter than the
            header are padded with NULLs, longer ones truncated.  When
            False, malformed rows are skipped and counted per failure mode
            in the ``csv.bad_rows{reason=...}`` perf counter: ``arity`` for
            rows whose field count does not match the header, ``type`` for
            rows a schema coercion or the backend rejects.
        backend: storage backend of the resulting table (``"columnar"``
            or ``"rows"``; see ``docs/storage.md``).

    Raises:
        ValueError: if the header is missing schema attributes, or (in
            strict mode) for the first malformed row.
    """
    path = Path(path)
    attributes = tuple(schema)
    with path.open("r", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path} is empty; expected a header row") from None
        missing = set(schema.names()) - set(header)
        if missing:
            raise ValueError(
                f"{path} is missing attributes {sorted(missing)} "
                f"required by schema {schema.name!r}"
            )
        positions = [header.index(a.name) for a in attributes]
        table = Table(schema, backend=backend)
        line_number = 2
        while rows := list(islice(reader, CHUNK_ROWS)):
            columns = _convert_chunk(attributes, positions, len(header), rows)
            if columns is None or not _load_chunk(table, columns):
                _insert_rows(
                    table, positions, len(header), rows, path, line_number, strict
                )
            line_number += len(rows)
    perf.count("csv.rows_loaded", len(table))
    return table


def _convert_chunk(
    attributes: Sequence[Attribute],
    positions: Sequence[int],
    width: int,
    rows: list[list[str]],
) -> dict[str, Sequence[Any]] | None:
    """The chunk converted a column at a time, or None if any row needs
    the per-row path (ragged, unparseable, or NULL where not allowed)."""
    if set(map(len, rows)) != {width}:
        return None
    fields = list(zip(*rows))
    columns: dict[str, Sequence[Any]] = {}
    for attribute, position in zip(attributes, positions):
        texts = fields[position]
        parse = _TEXT_PARSERS[attribute.data_type]
        try:
            if "" not in texts:
                column = texts if parse is None else list(map(parse, texts))
            elif not attribute.nullable:
                return None
            elif parse is None:
                column = [text or None for text in texts]
            else:
                column = [parse(text) if text else None for text in texts]
        except (TypeError, ValueError):
            return None
        columns[attribute.name] = column
    return columns


def _load_chunk(table: Table, columns: dict[str, Sequence[Any]]) -> bool:
    """Append a converted chunk; False, with the table unchanged, when the
    backend refuses a value (an INT outside int64 on the columnar backend)."""
    try:
        table.load_columns(columns)
    except OverflowError:
        return False
    return True


def _insert_rows(
    table: Table,
    positions: Sequence[int],
    width: int,
    rows: list[list[str]],
    path: Path,
    first_line: int,
    strict: bool,
) -> None:
    """Insert the chunk one row at a time, keeping or skipping each row
    whole and naming (strict) or counting (lenient) the malformed ones."""
    plan = list(zip(table.schema.names(), positions))
    for line_number, fields in enumerate(rows, start=first_line):
        if not strict and len(fields) != width:
            perf.count("csv.bad_rows", reason="arity")
            continue
        try:
            table.insert(
                {
                    name: None
                    if position >= len(fields) or fields[position] == ""
                    else fields[position]
                    for name, position in plan
                }
            )
        except (TypeError, ValueError, OverflowError) as exc:
            if strict:
                raise ValueError(f"{path}:{line_number}: {exc}") from exc
            perf.count("csv.bad_rows", reason="type")
