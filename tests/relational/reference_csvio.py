"""Reference CSV loader: the per-row loop the chunked ``read_csv`` replaced.

Kept only as the oracle of the differential tests: every field goes
through ``Attribute.coerce``, good rows accumulate into per-attribute
lists, and the table is built from them in one shot.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Any

from repro import perf
from repro.relational.schema import TableSchema
from repro.relational.table import Table


def reference_read_csv(
    schema: TableSchema, path: str | Path, strict: bool = True, backend: str = "rows"
) -> Table:
    path = Path(path)
    attributes = tuple(schema)
    columns: dict[str, list[Any]] = {a.name: [] for a in attributes}
    loaded_rows = 0
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
        plan = [(a, columns[a.name].append, header.index(a.name)) for a in attributes]
        for line_number, fields in enumerate(reader, start=2):
            if not strict and len(fields) != len(header):
                perf.count("csv.bad_rows", reason="arity")
                continue
            try:
                coerced = [
                    attribute.coerce(
                        None
                        if position >= len(fields) or fields[position] == ""
                        else fields[position]
                    )
                    for attribute, _, position in plan
                ]
            except (TypeError, ValueError) as exc:
                if strict:
                    raise ValueError(f"{path}:{line_number}: {exc}") from exc
                perf.count("csv.bad_rows", reason="type")
                continue
            for (_, append, _), value in zip(plan, coerced):
                append(value)
            loaded_rows += 1
    table = Table.from_columns(schema, columns, backend=backend, coerce=False)
    perf.count("csv.rows_loaded", loaded_rows)
    return table
