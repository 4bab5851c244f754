"""DatasetDescriptor: validation, CLI-flag parsing, TOML catalog files."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.catalog import (
    BUILTIN_SCHEMAS,
    GENERATORS,
    DatasetDescriptor,
    load_catalog_file,
    parse_dataset_arg,
)


class TestDescriptorValidation:
    def test_needs_exactly_one_of_source_or_generator(self):
        with pytest.raises(ValueError, match="exactly one"):
            DatasetDescriptor(name="X")
        with pytest.raises(ValueError, match="exactly one"):
            DatasetDescriptor(
                name="X",
                source=Path("x.csv"),
                generator="homes",
                workload=Path("w.sql"),
            )

    def test_unknown_generator_rejected(self):
        with pytest.raises(ValueError, match="unknown generator"):
            DatasetDescriptor(name="X", generator="nope")

    def test_csv_dataset_needs_workload(self):
        with pytest.raises(ValueError, match="workload="):
            DatasetDescriptor(name="ListProperty", source=Path("x.csv"))

    def test_namespace_defaults_to_name(self):
        descriptor = DatasetDescriptor(name="Movies", generator="movies")
        assert descriptor.namespace == "Movies"
        aliased = DatasetDescriptor(
            name="Movies", generator="movies", namespace="films"
        )
        assert aliased.namespace == "films"

    def test_schema_resolution_prefers_builtin_by_name(self):
        descriptor = DatasetDescriptor(name="Movies", generator="movies")
        assert descriptor.load_schema().name == "Movies"
        assert set(BUILTIN_SCHEMAS) >= {"ListProperty", "Movies"}

    def test_name_must_match_schema(self, tmp_path):
        data = tmp_path / "homes.csv"
        data.write_text("", encoding="utf-8")
        descriptor = DatasetDescriptor(
            name="NotTheSchema", source=data, workload=tmp_path / "w.sql"
        )
        with pytest.raises(ValueError, match="no built-in schema"):
            descriptor.load_schema()

    def test_generated_build_is_deterministic(self):
        descriptor = DatasetDescriptor(
            name="Movies", generator="movies", rows=200, workload_queries=50
        )
        table_a, stats_a = descriptor.build()
        table_b, stats_b = descriptor.build()
        assert len(table_a) == len(table_b) == 200
        assert stats_a.total_queries == stats_b.total_queries == 50

    def test_every_generator_builds(self):
        for key in GENERATORS:
            name = GENERATORS[key].schema().name
            descriptor = DatasetDescriptor(
                name=name, generator=key, rows=50, workload_queries=20
            )
            table, statistics = descriptor.build()
            assert len(table) == 50
            assert statistics.total_queries == 20


class TestParseDatasetArg:
    def test_csv_spec(self):
        descriptor = parse_dataset_arg(
            "ListProperty=homes.csv,workload=workload.sql,backend=columnar"
        )
        assert descriptor.name == "ListProperty"
        assert descriptor.source == Path("homes.csv")
        assert descriptor.workload == Path("workload.sql")
        assert descriptor.backend == "columnar"

    def test_generator_spec(self):
        descriptor = parse_dataset_arg("Movies=@movies,rows=8000,seed=3")
        assert descriptor.generator == "movies"
        assert descriptor.rows == 8000
        assert descriptor.seed == 3

    @pytest.mark.parametrize(
        "bad",
        ["Movies", "=x.csv", "Movies=", "Movies=@movies,rows", "M=@movies,rows=1,rows=2"],
    )
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_dataset_arg(bad)

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_dataset_arg("Movies=@movies,color=red")


class TestCatalogFile:
    def _write(self, tmp_path, text):
        path = tmp_path / "catalog.toml"
        path.write_text(text, encoding="utf-8")
        return path

    def test_loads_descriptors_and_default(self, tmp_path):
        (tmp_path / "homes.csv").write_text("", encoding="utf-8")
        (tmp_path / "workload.sql").write_text("", encoding="utf-8")
        path = self._write(
            tmp_path,
            """
            default = "Movies"

            [datasets.ListProperty]
            source = "homes.csv"
            workload = "workload.sql"

            [datasets.Movies]
            generator = "movies"
            rows = 500
            """,
        )
        descriptors, default = load_catalog_file(path)
        assert [d.name for d in descriptors] == ["ListProperty", "Movies"]
        assert default == "Movies"
        # Relative paths resolve against the TOML file's directory.
        (homes,) = [d for d in descriptors if d.name == "ListProperty"]
        assert homes.source == tmp_path / "homes.csv"
        assert homes.workload == tmp_path / "workload.sql"

    def test_default_must_name_a_dataset(self, tmp_path):
        path = self._write(
            tmp_path,
            """
            default = "Nope"

            [datasets.Movies]
            generator = "movies"
            """,
        )
        with pytest.raises(ValueError, match="Nope"):
            load_catalog_file(path)

    def test_empty_catalog_rejected(self, tmp_path):
        path = self._write(tmp_path, 'title = "no datasets"\n')
        with pytest.raises(ValueError, match="datasets"):
            load_catalog_file(path)
