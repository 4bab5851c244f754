"""Backend choice at every entry point: columnar by default, two names only.

``DEFAULT_BACKEND`` in :mod:`repro.relational.backends` is the one place
the default is written; every table constructor, loader, generator,
descriptor and CLI flag must follow it.  A deleted backend's name and its
``workers`` option must be refused at every entry point with an error
that names what is valid.
"""

import pytest

from repro.catalog import DatasetDescriptor
from repro.cli import build_parser, main
from repro.data.homes import ListPropertyGenerator, generate_homes
from repro.data.movies import generate_movies
from repro.relational.backends import DEFAULT_BACKEND
from repro.relational.csvio import read_csv
from repro.relational.schema import Attribute, TableSchema
from repro.relational.table import Table
from repro.relational.types import DataType

SCHEMA = TableSchema("T", (Attribute("a", DataType.INT),))

#: The process-pool backend this package no longer has.
RETIRED = "sharded"

#: The required arguments of each subcommand that takes --backend.
COMMANDS = {
    "categorize": ["--data", "h.csv", "--workload", "w.sql", "--query", "q"],
    "perf-report": ["--data", "h.csv", "--workload", "w.sql", "--query", "q"],
    "serve": ["--data", "h.csv", "--workload", "w.sql"],
}


def _read_csv(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a\n1\n")
    return read_csv(SCHEMA, path)


DEFAULTS = {
    "Table": lambda tmp_path: Table(SCHEMA).backend_name,
    "Table.from_columns": lambda tmp_path: Table.from_columns(
        SCHEMA, {"a": [1]}
    ).backend_name,
    "Table.from_rows": lambda tmp_path: Table.from_rows(
        SCHEMA, [{"a": 1}]
    ).backend_name,
    "read_csv": lambda tmp_path: _read_csv(tmp_path).backend_name,
    "generate_homes": lambda tmp_path: generate_homes(rows=5).backend_name,
    "ListPropertyGenerator": lambda tmp_path: ListPropertyGenerator(
        rows=5
    ).generate().backend_name,
    "generate_movies": lambda tmp_path: generate_movies(rows=5).backend_name,
    "DatasetDescriptor": lambda tmp_path: DatasetDescriptor(
        name="Movies", generator="movies"
    ).backend,
}
for _command, _args in COMMANDS.items():
    DEFAULTS[f"{_command} --backend"] = (
        lambda tmp_path, argv=[_command, *_args]: build_parser()
        .parse_args(argv)
        .backend
    )


@pytest.mark.parametrize("entry", DEFAULTS)
def test_default_backend_is_columnar(entry, tmp_path):
    assert DEFAULT_BACKEND == "columnar"
    assert DEFAULTS[entry](tmp_path) == DEFAULT_BACKEND


def _cli(argv):
    """A refusal case run through ``repro``: its stderr, after exit code 2."""

    def attempt(tmp_path, capsys) -> str:
        try:
            code = main(argv(tmp_path))
        except SystemExit as exit:  # argparse refusals
            code = exit.code
        assert code == 2
        return capsys.readouterr().err

    return attempt


def _table(tmp_path, capsys) -> str:
    with pytest.raises(ValueError) as info:
        Table(SCHEMA, backend=RETIRED)
    return str(info.value)


def _catalog(tmp_path, option: str) -> list[str]:
    path = tmp_path / "catalog.toml"
    path.write_text(f'[datasets.ListProperty]\ngenerator = "homes"\n{option}\n')
    return ["serve", "--catalog", str(path)]


CHOOSE = "choose from ('rows', 'columnar')"
UNKNOWN_KEY = ["unknown key(s) ['workers']", "valid keys: ['backend',"]

REFUSALS = {
    "Table-backend": (_table, [CHOOSE]),
    "dataset-backend": (
        _cli(lambda tmp_path: ["serve", "--dataset", f"T=@homes,backend={RETIRED}"]),
        [CHOOSE],
    ),
    "dataset-workers": (
        _cli(lambda tmp_path: ["serve", "--dataset", "T=@homes,workers=2"]),
        UNKNOWN_KEY,
    ),
    "toml-backend": (
        _cli(lambda tmp_path: _catalog(tmp_path, f'backend = "{RETIRED}"')),
        [CHOOSE],
    ),
    "toml-workers": (
        _cli(lambda tmp_path: _catalog(tmp_path, "workers = 2")),
        UNKNOWN_KEY,
    ),
}
for _command, _args in COMMANDS.items():
    REFUSALS[f"{_command}-backend"] = (
        _cli(lambda tmp_path, argv=[_command, *_args, "--backend", RETIRED]: argv),
        [f"invalid choice: '{RETIRED}' (choose from 'rows', 'columnar')"],
    )
    REFUSALS[f"{_command}-workers"] = (
        _cli(lambda tmp_path, argv=[_command, *_args, "--workers", "2"]: argv),
        ["unrecognized arguments: --workers 2", "[--backend {rows,columnar}]"],
    )


@pytest.mark.parametrize("entry", REFUSALS)
def test_retired_backend_options_are_refused(entry, tmp_path, capsys):
    attempt, expected = REFUSALS[entry]
    error = attempt(tmp_path, capsys)
    for text in expected:
        assert text in error
