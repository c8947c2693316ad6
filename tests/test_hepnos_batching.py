"""Tests for WriteBatch, AsynchronousWriteBatch, and the Prefetcher."""

import pytest

from repro.errors import HEPnOSError, ProductNotFound
from repro.hepnos import (
    AsynchronousWriteBatch,
    Prefetcher,
    PEPOptions,
    WriteBatch,
    vector_of,
)
from repro.serial import serializable


@serializable("batch.Hit")
class Hit:
    def __init__(self, adc=0.0):
        self.adc = adc

    def serialize(self, ar):
        self.adc = ar.io(self.adc)

    def __eq__(self, other):
        return self.adc == other.adc


class TestWriteBatch:
    def test_batched_creation_visible_after_flush(self, fabric, datastore):
        ds = datastore.create_dataset("wb")
        with WriteBatch(datastore) as batch:
            run = ds.create_run(1, batch=batch)
            subrun = run.create_subrun(1, batch=batch)
            for i in range(10):
                subrun.create_event(i, batch=batch)
        assert [e.number for e in datastore["wb"][1][1]] == list(range(10))

    def test_fewer_rpcs_than_items(self, fabric, datastore):
        ds = datastore.create_dataset("wb2")
        run = ds.create_run(1)
        subrun = run.create_subrun(1)
        fabric.stats.reset()
        with WriteBatch(datastore) as batch:
            for i in range(200):
                subrun.create_event(i, batch=batch)
        # 200 creations collapse into one batched RPC per target database.
        assert fabric.stats.rpc_count <= len(datastore.connection["events"])

    def test_batched_products(self, fabric, datastore):
        ds = datastore.create_dataset("wb3")
        event = ds.create_run(1).create_subrun(1).create_event(1)
        with WriteBatch(datastore) as batch:
            event.store(Hit(1.5), label="a", batch=batch)
            event.store([Hit(2.5)], label="b", batch=batch)
            # Nothing visible before flush.
            assert not event.has_product(Hit, label="a")
        assert event.load(Hit, label="a") == Hit(1.5)
        assert event.load(vector_of(Hit), label="b") == [Hit(2.5)]

    def test_flush_threshold(self, datastore):
        ds = datastore.create_dataset("wb4")
        subrun = ds.create_run(1).create_subrun(1)
        batch = WriteBatch(datastore, flush_threshold=16)
        for i in range(100):
            subrun.create_event(i, batch=batch)
        assert batch.flushes > 0  # auto-flushed along the way
        assert batch.pending < 16
        batch.close()
        assert batch.items_written == 100

    def test_closed_batch_rejects_appends(self, datastore):
        batch = WriteBatch(datastore)
        batch.close()
        ds = datastore.create_dataset("wb5")
        with pytest.raises(HEPnOSError, match="closed"):
            ds.create_run(1, batch=batch)

    def test_exception_skips_flush(self, datastore):
        ds = datastore.create_dataset("wb6")
        with pytest.raises(RuntimeError):
            with WriteBatch(datastore) as batch:
                ds.create_run(1, batch=batch)
                raise RuntimeError("abort")
        assert 1 not in ds

    def test_manual_flush_midway(self, datastore):
        ds = datastore.create_dataset("wb7")
        batch = WriteBatch(datastore)
        ds.create_run(5, batch=batch)
        batch.flush()
        assert 5 in ds
        batch.close()


class TestAsynchronousWriteBatch:
    def test_async_completion_on_close(self, datastore):
        ds = datastore.create_dataset("awb")
        subrun = ds.create_run(1).create_subrun(1)
        with AsynchronousWriteBatch(datastore, flush_threshold=32) as batch:
            for i in range(100):
                subrun.create_event(i, batch=batch)
        assert [e.number for e in subrun] == list(range(100))

    def test_wait_blocks_until_done(self, datastore):
        ds = datastore.create_dataset("awb2")
        event = ds.create_run(1).create_subrun(1).create_event(1)
        batch = AsynchronousWriteBatch(datastore, flush_threshold=4)
        for i in range(10):
            event.store(Hit(float(i)), label=f"h{i}", batch=batch)
        batch.flush()
        batch.wait()
        assert event.load(Hit, label="h9") == Hit(9.0)
        batch.close()

    def test_threshold_validation(self, datastore):
        with pytest.raises(HEPnOSError):
            AsynchronousWriteBatch(datastore, flush_threshold=0)

    def test_products_roundtrip(self, datastore):
        ds = datastore.create_dataset("awb3")
        subrun = ds.create_run(1).create_subrun(1)
        with AsynchronousWriteBatch(datastore, flush_threshold=64) as batch:
            for i in range(50):
                event = subrun.create_event(i, batch=batch)
                event.store([Hit(float(i))], label="hits", batch=batch)
        for i, event in enumerate(subrun):
            assert event.load(vector_of(Hit), label="hits") == [Hit(float(i))]


class TestPrefetcher:
    @pytest.fixture()
    def populated(self, datastore):
        ds = datastore.create_dataset("pf")
        subrun = ds.create_run(1).create_subrun(1)
        with WriteBatch(datastore) as batch:
            for i in range(100):
                event = subrun.create_event(i, batch=batch)
                event.store([Hit(float(i))], label="hits", batch=batch)
                if i % 3 == 0:
                    event.store(Hit(-1.0), label="flag", batch=batch)
        return subrun

    def test_iterates_all_events_in_order(self, datastore, populated):
        prefetcher = Prefetcher(
            datastore, options=PEPOptions(input_batch_size=16))
        numbers = [ev.number for ev in prefetcher.events(populated)]
        assert numbers == list(range(100))

    def test_products_prefetched(self, fabric, datastore, populated):
        prefetcher = Prefetcher(
            datastore, options=PEPOptions(input_batch_size=32),
            products=[(vector_of(Hit), "hits")],
        )
        fabric.stats.reset()
        total = 0.0
        count = 0
        for ev in prefetcher.events(populated):
            hits = ev.load(vector_of(Hit), label="hits")
            total += hits[0].adc
            count += 1
        assert count == 100
        assert total == sum(range(100))
        # Far fewer RPCs than events: pages + batched get_multi only.
        assert fabric.stats.rpc_count < 40

    def test_missing_prefetched_product_raises(self, datastore, populated):
        prefetcher = Prefetcher(
            datastore, options=PEPOptions(input_batch_size=32),
            products=[(Hit, "flag")])
        seen = 0
        for ev in prefetcher.events(populated):
            if ev.number % 3 == 0:
                assert ev.load(Hit, label="flag") == Hit(-1.0)
            else:
                with pytest.raises(ProductNotFound):
                    ev.load(Hit, label="flag")
            seen += 1
        assert seen == 100

    def test_prefetched_accessor_no_fallback(self, datastore, populated):
        prefetcher = Prefetcher(
            datastore, options=PEPOptions(input_batch_size=32),
            products=[(Hit, "flag")])
        for ev in prefetcher.events(populated):
            value = ev.prefetched(Hit, label="flag")
            assert (value is not None) == (ev.number % 3 == 0)

    def test_fallback_load_for_unprefetched(self, datastore, populated):
        prefetcher = Prefetcher(
            datastore, options=PEPOptions(input_batch_size=32))
        first = next(prefetcher.events(populated))
        assert first.load(vector_of(Hit), label="hits") == [Hit(0.0)]

    def test_batch_size_validation(self, datastore):
        with pytest.raises(HEPnOSError):
            Prefetcher(datastore, options=PEPOptions(input_batch_size=0))
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            Prefetcher(datastore, batch_size=16)

    def test_empty_subrun(self, datastore):
        ds = datastore.create_dataset("pf-empty")
        subrun = ds.create_run(1).create_subrun(1)
        prefetcher = Prefetcher(datastore)
        assert list(prefetcher.events(subrun)) == []
