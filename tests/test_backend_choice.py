"""Retired storage options are refused at every entry point.

The column store is the only layout.  Three spellings older callers pass
still parse — ``read_csv(..., backend=)``, ``generate_homes(...,
backend=)`` and a dataset spec's ``backend`` key (``--dataset`` and TOML)
— and each accepts ``columnar`` alone; any other name is an error naming
it.  Every other way to choose a layout is gone: the CLI ``--backend``
and ``--workers`` flags are unrecognized arguments, and ``Table`` takes
no ``backend`` at all.
"""

import pytest

from repro.catalog import load_catalog_file, parse_dataset_arg
from repro.cli import main
from repro.data.homes import generate_homes
from repro.relational.csvio import read_csv
from repro.relational.schema import Attribute, TableSchema
from repro.relational.table import Table
from repro.relational.types import DataType

SCHEMA = TableSchema("T", (Attribute("a", DataType.INT),))

#: The process-pool backend this package no longer has.
RETIRED = "sharded"

#: The list-per-attribute layout, now only the tests' reference.
ORACLE = "rows"

#: The required arguments of each subcommand that once took --backend.
COMMANDS = {
    "categorize": ["--data", "h.csv", "--workload", "w.sql", "--query", "q"],
    "perf-report": ["--data", "h.csv", "--workload", "w.sql", "--query", "q"],
    "serve": ["--data", "h.csv", "--workload", "w.sql"],
}

ONLY_COLUMNAR = "the only one is 'columnar'"
UNKNOWN_KEY = ["unknown key(s) ['workers']", "valid keys: ['backend',"]


def _csv(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a\n1\n")
    return path


def _catalog(tmp_path, option: str) -> str:
    path = tmp_path / "catalog.toml"
    path.write_text(f'[datasets.ListProperty]\ngenerator = "homes"\n{option}\n')
    return str(path)


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


def _raises(error, call):
    """A refusal case raised in process: the exception's message."""

    def attempt(tmp_path, capsys) -> str:
        with pytest.raises(error) as info:
            call(tmp_path)
        return str(info.value)

    return attempt


REFUSALS = {}
for _suffix, _name in (("", RETIRED), ("-rows", ORACLE)):
    REFUSALS[f"Table-backend{_suffix}"] = (
        _raises(TypeError, lambda tmp_path, name=_name: Table(SCHEMA, backend=name)),
        ["backend"],
    )
    REFUSALS[f"read_csv-backend{_suffix}"] = (
        _raises(
            ValueError,
            lambda tmp_path, name=_name: read_csv(SCHEMA, _csv(tmp_path), backend=name),
        ),
        [repr(_name), ONLY_COLUMNAR],
    )
    REFUSALS[f"generate_homes-backend{_suffix}"] = (
        _raises(
            ValueError,
            lambda tmp_path, name=_name: generate_homes(rows=5, backend=name),
        ),
        [repr(_name), ONLY_COLUMNAR],
    )
    REFUSALS[f"dataset-backend{_suffix}"] = (
        _cli(
            lambda tmp_path, name=_name: [
                "serve", "--dataset", f"T=@homes,backend={name}"
            ]
        ),
        [repr(_name), ONLY_COLUMNAR],
    )
    REFUSALS[f"toml-backend{_suffix}"] = (
        _cli(
            lambda tmp_path, name=_name: [
                "serve", "--catalog", _catalog(tmp_path, f'backend = "{name}"')
            ]
        ),
        [repr(_name), ONLY_COLUMNAR],
    )
REFUSALS["dataset-workers"] = (
    _cli(lambda tmp_path: ["serve", "--dataset", "T=@homes,workers=2"]),
    UNKNOWN_KEY,
)
REFUSALS["toml-workers"] = (
    _cli(lambda tmp_path: ["serve", "--catalog", _catalog(tmp_path, "workers = 2")]),
    UNKNOWN_KEY,
)
for _command, _args in COMMANDS.items():
    REFUSALS[f"{_command}-backend"] = (
        _cli(lambda tmp_path, argv=[_command, *_args, "--backend", "columnar"]: argv),
        ["unrecognized arguments: --backend columnar"],
    )
    REFUSALS[f"{_command}-workers"] = (
        _cli(lambda tmp_path, argv=[_command, *_args, "--workers", "2"]: argv),
        ["unrecognized arguments: --workers 2"],
    )


@pytest.mark.parametrize("entry", REFUSALS)
def test_retired_backend_options_are_refused(entry, tmp_path, capsys):
    attempt, expected = REFUSALS[entry]
    error = attempt(tmp_path, capsys)
    for text in expected:
        assert text in error


def test_perfbench_columnar_spellings_are_accepted(tmp_path):
    assert len(read_csv(SCHEMA, _csv(tmp_path), backend="columnar")) == 1
    assert len(generate_homes(rows=5, seed=1, backend="columnar")) == 5
    spec = "ListProperty=homes.csv,workload=workload.sql,backend=columnar"
    assert parse_dataset_arg(spec).name == "ListProperty"
    catalog = _catalog(tmp_path, 'backend = "columnar"')
    assert [d.name for d in load_catalog_file(catalog)[0]] == ["ListProperty"]
