"""Tests for HEPnOS2HDF export (and ingest/export round-trips)."""

import numpy as np
import pytest

from repro.errors import HEPnOSError
from repro.hdf5lite import H5LiteFile
from repro.hepnos import (
    DataLoader,
    DatasetExporter,
    discover_schema,
)
from repro.nova import BEAM, NovaGenerator, read_nova_file, write_nova_file


@pytest.fixture()
def ingested(datastore, tmp_path):
    generator = NovaGenerator(BEAM)
    path = str(tmp_path / "in.h5l")
    triples = [(1000, 0, e) for e in range(12)]
    write_nova_file(path, generator, triples)
    DataLoader(datastore, "exp/sample").ingest_file(path)
    return path, triples


class TestExport:
    def test_roundtrip_matches_source(self, datastore, ingested, tmp_path):
        source, triples = ingested
        out = str(tmp_path / "out.h5l")
        exporter = DatasetExporter(datastore, "exp/sample")
        stats = exporter.export(out, ["rec.slc"])
        assert stats.events == len(triples)
        assert stats.tables == 1

        original = read_nova_file(source)
        with H5LiteFile.open(out) as f:
            group = f.root.group("rec/slc")
            exported_ids = np.sort(group.read("slice_id"))
        assert np.array_equal(exported_ids, np.sort(original["slice_id"]))
        assert stats.rows == len(original["slice_id"])

    def test_exported_file_reingestable(self, datastore, ingested, tmp_path):
        """Export -> ingest -> identical product content (full cycle)."""
        _, triples = ingested
        out = str(tmp_path / "cycle.h5l")
        DatasetExporter(datastore, "exp/sample").export(out, ["rec.slc"])
        DataLoader(datastore, "exp/second").ingest_file(out)
        from repro.hepnos import vector_of
        from repro.serial import registered_type

        slc = registered_type("rec.slc")
        for r, s, e in triples[:3]:
            a = datastore["exp/sample"][r][s][e].load(vector_of(slc))
            b = datastore["exp/second"][r][s][e].load(vector_of(slc))
            assert sorted(x.slice_id for x in a) == sorted(
                x.slice_id for x in b
            )

    def test_exported_schema_discoverable(self, datastore, ingested, tmp_path):
        out = str(tmp_path / "schema.h5l")
        DatasetExporter(datastore, "exp/sample").export(out, ["rec.slc"])
        with H5LiteFile.open(out) as f:
            schemas = discover_schema(f)
        assert [s.class_name for s in schemas] == ["rec.slc"]

    def test_compressed_export(self, datastore, ingested, tmp_path):
        import os

        plain = str(tmp_path / "plain.h5l")
        packed = str(tmp_path / "packed.h5l")
        exporter = DatasetExporter(datastore, "exp/sample")
        exporter.export(plain, ["rec.slc"])
        exporter.export(packed, ["rec.slc"], compression="zlib")
        assert os.path.getsize(packed) < os.path.getsize(plain)

    def test_missing_class_rejected(self, datastore, ingested, tmp_path):
        from repro.errors import SerializationError

        exporter = DatasetExporter(datastore, "exp/sample")
        with pytest.raises(SerializationError):
            exporter.export(str(tmp_path / "x.h5l"), ["no.such.Class"])

    def test_no_classes_rejected(self, datastore, ingested, tmp_path):
        with pytest.raises(HEPnOSError):
            DatasetExporter(datastore, "exp/sample").export(
                str(tmp_path / "x.h5l"), []
            )

    def test_event_subset(self, datastore, ingested, tmp_path):
        out = str(tmp_path / "subset.h5l")
        ds = datastore["exp/sample"]
        subset = [ev for ev in ds.events() if ev.number < 3]
        stats = DatasetExporter(datastore, "exp/sample").export(
            out, ["rec.slc"], events=subset
        )
        assert stats.events == 3
