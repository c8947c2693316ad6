"""Tests for HDF2HEPnOS: schema discovery, codegen, and bulk ingest."""

import hashlib
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import deploy, shards
from repro import hepnos
from repro.errors import HEPnOSError
from repro.hdf5lite import H5LiteFile
from repro.hepnos import loader as loader_module
from repro.hepnos.loader import IngestStats
from repro.hepnos import (
    DataLoader,
    WriteBatch,
    build_product_class,
    discover_schema,
    generate_class_code,
    vector_of,
)
from repro.mercury import Fabric
from repro.minimpi import mpirun
from repro.nova import BEAM, GeneratorConfig, NovaGenerator, generate_file_set
from repro.serial import registered_type
from repro.utils import encode_u64_be


class TestSchemaDiscovery:
    def test_finds_class_tables(self, nova_file):
        path, _ = nova_file
        with H5LiteFile.open(path) as f:
            schemas = discover_schema(f)
        names = [s.class_name for s in schemas]
        assert names == ["rec.hdr", "rec.slc"]

    def test_id_columns_recognized(self, nova_file):
        path, _ = nova_file
        with H5LiteFile.open(path) as f:
            schema = discover_schema(f)[1]
        assert schema.id_columns == {"run": "run", "subrun": "subrun",
                                     "event": "evt"}

    def test_value_columns_exclude_ids(self, nova_file):
        path, _ = nova_file
        with H5LiteFile.open(path) as f:
            schema = discover_schema(f)[1]
        names = [n for n, _ in schema.value_columns]
        assert "run" not in names and "evt" not in names
        assert "cal_e" in names and "cvn_e" in names

    def test_tables_without_ids_skipped(self, tmp_path):
        path = str(tmp_path / "other.h5l")
        with H5LiteFile.create(path) as f:
            g = f.create_group("loose")
            g.create_dataset("x", np.zeros(4))
        with H5LiteFile.open(path) as f:
            assert discover_schema(f) == []


class TestCodeGeneration:
    def test_generated_code_executes(self, nova_file):
        path, _ = nova_file
        with H5LiteFile.open(path) as f:
            schema = [s for s in discover_schema(f) if s.class_name == "rec.hdr"][0]
        # The generated class would collide with the ingest-time class
        # under the same registered name; rename for the exec test.
        import dataclasses

        code = generate_class_code(schema).replace("rec.hdr", "test.gen.hdr")
        namespace = {}
        exec(code, namespace)
        cls = registered_type("test.gen.hdr")
        assert dataclasses.is_dataclass(cls)
        instance = cls()
        assert hasattr(instance, "nslices")

    def test_build_product_class(self):
        from repro.hepnos.loader import TableSchema

        schema = TableSchema(
            class_name="test.built.Thing",
            group_path="g",
            id_columns={"run": "run", "subrun": "subrun", "event": "evt"},
            value_columns=(("a", "<f8"), ("b", "<i4"), ("flag", "|b1")),
            length=0,
        )
        cls = build_product_class(schema)
        obj = cls(a=1.5, b=2, flag=True)
        assert obj.a == 1.5
        assert registered_type("test.built.Thing") is cls

    def test_awkward_column_names(self):
        from repro.hepnos.loader import TableSchema, _python_field_name

        assert _python_field_name("rec.energy.numu") == "rec_energy_numu"
        assert _python_field_name("class") == "f_class"
        schema = TableSchema(
            class_name="test.built.Awkward",
            group_path="g",
            id_columns={},
            value_columns=(("rec.x", "<f8"), ("lambda", "<i4")),
            length=0,
        )
        cls = build_product_class(schema)
        assert cls(rec_x=1.0, f_lambda=2)

    def test_unsupported_dtype(self):
        from repro.hepnos.loader import TableSchema

        schema = TableSchema(
            class_name="test.built.BadDtype", group_path="g", id_columns={},
            value_columns=(("c", "<c16"),), length=0,
        )
        with pytest.raises(HEPnOSError, match="unsupported"):
            build_product_class(schema)


class TestIngest:
    def test_ranks_meeting_a_new_table_together_build_one_class(
            self, datastore):
        """Ingest ranks are threads over one type registry: the loser of
        a lookup-then-register race died on "already registered" and
        left the other ranks waiting in the closing allreduce."""
        from repro.hepnos.loader import TableSchema

        schema = TableSchema(
            class_name="test.built.Raced", group_path="g", id_columns={},
            value_columns=(("a", "<f8"), ("b", "<i4")), length=0,
        )
        loader = DataLoader(datastore, "raced")
        ranks = 8
        barrier = threading.Barrier(ranks)

        def rank():
            barrier.wait(timeout=30)
            return loader._class_for(schema)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(ranks) as pool:
                futures = [pool.submit(rank) for _ in range(ranks)]
                classes = {future.result(timeout=30) for future in futures}
        finally:
            sys.setswitchinterval(interval)
        assert classes == {registered_type("test.built.Raced")}

    def test_single_file(self, datastore, nova_file):
        path, triples = nova_file
        loader = DataLoader(datastore, "ingested")
        stats = loader.ingest_file(path)
        assert stats.files == 1
        assert stats.tables == 2
        assert stats.events_created == len(triples)
        ds = datastore["ingested"]
        assert [r.number for r in ds] == [1000]
        observed = [ev.triple() for ev in ds.events()]
        assert sorted(observed) == sorted(triples)

    def test_products_match_file_rows(self, datastore, nova_file):
        path, triples = nova_file
        DataLoader(datastore, "ingested2").ingest_file(path)
        slc_cls = registered_type("rec.slc")
        generator = NovaGenerator(BEAM)
        event = datastore["ingested2"][1000][0][3]
        products = event.load(vector_of(slc_cls))
        expected = generator.slices_for_event(1000, 0, 3)
        assert len(products) == len(expected)
        got_ids = sorted(p.slice_id for p in products)
        want_ids = sorted(s.slice_id for s in expected)
        assert got_ids == want_ids

    def test_parallel_ingest_matches_serial(self, fabric, datastore, tmp_path):
        from repro.nova import generate_file_set

        summary = generate_file_set(str(tmp_path / "files"), num_files=4,
                                    mean_events_per_file=8)
        loader = DataLoader(datastore, "par-ingest")

        def body(comm):
            return loader.ingest(summary.paths, comm=comm)

        results = mpirun(body, 2, timeout=120.0)
        assert results[0].files == 4
        assert results[0].events_created == summary.total_events
        observed = sum(1 for _ in datastore["par-ingest"].events())
        assert observed == summary.total_events

    def test_ingest_empty_file_list(self, datastore):
        loader = DataLoader(datastore, "empty-ingest")
        stats = loader.ingest([])
        assert stats.files == 0

    def test_non_table_file_rejected(self, datastore, tmp_path):
        path = str(tmp_path / "no-tables.h5l")
        with H5LiteFile.create(path) as f:
            f.create_group("g").create_dataset("x", np.zeros(3))
        loader = DataLoader(datastore, "bad-ingest")
        with pytest.raises(HEPnOSError, match="no class tables"):
            loader.ingest_file(path)

    def test_label_applied(self, datastore, nova_file):
        path, _ = nova_file
        DataLoader(datastore, "labeled", label="caf").ingest_file(path)
        slc_cls = registered_type("rec.slc")
        event = next(datastore["labeled"].events())
        assert event.load(vector_of(slc_cls), label="caf")

    def test_negative_id_refused_before_any_pair_of_its_table(
            self, datastore, tmp_path):
        """A negative number would make a valid-looking big-endian key;
        the table is refused as ``encode_u64_be`` refuses it, and none
        of its pairs is queued (the table before it stays queued)."""
        path = str(tmp_path / "negative.h5l")
        with H5LiteFile.create(path) as f:
            # The bad row sorts after a good one of the same table.
            for name, subruns, evts in (("a_good", [0, 0], [0, 1]),
                                        ("b_bad", [0, 1], [2, -3])):
                group = f.create_group(f"neg/{name}")
                group.create_dataset("run", np.array([5, 5], np.int64))
                group.create_dataset("subrun", np.array(subruns, np.int64))
                group.create_dataset("evt", np.array(evts, np.int64))
                group.create_dataset("x", np.array([1.0, 2.0]))
        with pytest.raises(ValueError) as refused:
            encode_u64_be(-3)
        batch = WriteBatch(datastore, flush_threshold=4096)
        with pytest.raises(ValueError, match=str(refused.value)):
            DataLoader(datastore, "negative").ingest_file(path, batch=batch)
        # run + subrun + 2 events + 2 products of the good table
        assert batch.pending == 6
        assert all(key[-8:] != encode_u64_be(2) for pairs in
                   batch._placed.values() for key, _ in pairs)


def ingest_fingerprint(directory: str) -> tuple:
    """Ingest a seeded file set (3 files of 1,108 / 1,229 / 1,727
    events, the last past one 4,096-pair flush) on a 2-server ``map``
    deployment; return the sha256 of every database's sorted pairs,
    the ``IngestStats`` and each file's ``WriteBatch.flushes``."""
    summary = generate_file_set(directory, num_files=3,
                                mean_events_per_file=1100,
                                config=GeneratorConfig(seed=34), seed=36)
    servers = deploy(Fabric())
    session = hepnos.connect(servers=servers)
    batches = []

    class Recording(WriteBatch):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            batches.append(self)

    real, loader_module.WriteBatch = loader_module.WriteBatch, Recording
    try:
        stats = DataLoader(session.datastore, "identity").ingest(
            summary.paths)
    finally:
        loader_module.WriteBatch = real
        session.close()
    digest = hashlib.sha256()
    for (address, name), pairs in sorted(shards(servers).items()):
        digest.update(f"{address} {name} {len(pairs)}\n".encode())
        for key, value in sorted(pairs.items()):
            digest.update(len(key).to_bytes(4, "big") + key
                          + len(value).to_bytes(4, "big") + value)
    for server in servers:
        server.shutdown()
    return digest.hexdigest(), stats, [batch.flushes for batch in batches]


def test_ingest_stores_what_the_per_event_loader_stored(tmp_path):
    """Run-level appends and batched placement change how ingest
    queues pairs, not what lands where: digest, stats and flushes are
    pinned from the loader that stored one product at a time."""
    digest, stats, flushes = ingest_fingerprint(str(tmp_path))
    assert digest == ("58f3ff5d17eb470a069a64038555d82d"
                      "6ce6674dd34793bb1cfb522c7bc59ecd")
    assert stats == IngestStats(files=3, tables=6, rows=20705,
                                events_created=4064, products_stored=8128)
    assert flushes == [16, 17, 26]
