"""Tests for the ParallelEventProcessor (sequential and MPI-parallel)."""

import dataclasses
import threading

import pytest

from repro.errors import HEPnOSError
from repro.hepnos import (
    ParallelEventProcessor,
    PEPOptions,
    WriteBatch,
    vector_of,
)
from repro.hepnos import keys
from repro.minimpi import SUM, mpirun
from repro.serial import serializable
from repro.yokan.client import DatabaseHandle


@serializable("pep.Slice")
class Slice:
    def __init__(self, slice_id=0, energy=0.0):
        self.slice_id = slice_id
        self.energy = energy

    def serialize(self, ar):
        self.slice_id = ar.io(self.slice_id)
        self.energy = ar.io(self.energy)

    def __eq__(self, other):
        return (self.slice_id, self.energy) == (other.slice_id, other.energy)


@pytest.fixture()
def populated(datastore):
    """3 runs x 2 subruns x 25 events, each with a vector<Slice> product."""
    ds = datastore.create_dataset("pep-data")
    expected = []
    with WriteBatch(datastore) as batch:
        for r in range(3):
            run = ds.create_run(r, batch=batch)
            for s in range(2):
                subrun = run.create_subrun(s, batch=batch)
                for e in range(25):
                    event = subrun.create_event(e, batch=batch)
                    slices = [Slice(r * 10000 + s * 1000 + e * 10 + i, float(i))
                              for i in range(3)]
                    event.store(slices, label="slices", batch=batch)
                    expected.append((r, s, e))
    return ds, sorted(expected)


class TestSequential:
    def test_visits_every_event_once(self, datastore, populated):
        ds, expected = populated
        seen = []
        pep = ParallelEventProcessor(
            datastore, options=PEPOptions(input_batch_size=16))
        stats = pep.process(ds, lambda ev: seen.append(ev.triple()))
        assert sorted(seen) == expected
        assert stats.events_processed == len(expected)
        assert stats.role == "sequential"

    def test_products_available(self, datastore, populated):
        ds, expected = populated
        pep = ParallelEventProcessor(
            datastore, options=PEPOptions(input_batch_size=16),
            products=[(vector_of(Slice), "slices")],
        )
        ids = []
        pep.process(ds, lambda ev: ids.extend(
            s.slice_id for s in ev.load(vector_of(Slice), label="slices")
        ))
        assert len(ids) == 3 * len(expected)
        assert len(set(ids)) == len(ids)

    def test_prefetch_reduces_rpcs(self, fabric, datastore, populated):
        ds, expected = populated
        pep = ParallelEventProcessor(
            datastore, options=PEPOptions(input_batch_size=64),
            products=[(vector_of(Slice), "slices")],
        )
        fabric.stats.reset()
        pep.process(ds, lambda ev: ev.load(vector_of(Slice), label="slices"))
        with_prefetch = fabric.stats.rpc_count

        pep_naive = ParallelEventProcessor(
            datastore, options=PEPOptions(input_batch_size=64))
        fabric.stats.reset()
        pep_naive.process(ds, lambda ev: ev.load(vector_of(Slice), label="slices"))
        without_prefetch = fabric.stats.rpc_count
        # At this tiny scale the fixed per-subrun paging costs dominate;
        # the gap widens with event count.
        assert with_prefetch < without_prefetch * 0.6

    def test_empty_dataset(self, datastore):
        ds = datastore.create_dataset("pep-empty")
        pep = ParallelEventProcessor(datastore)
        stats = pep.process(ds, lambda ev: (_ for _ in ()).throw(AssertionError))
        assert stats.events_processed == 0

    def test_option_validation(self, datastore):
        with pytest.raises(HEPnOSError):
            ParallelEventProcessor(
                datastore, options=PEPOptions(input_batch_size=0))
        with pytest.raises(HEPnOSError):
            ParallelEventProcessor(
                datastore, options=PEPOptions(dispatch_batch_size=-1))
        # Tuning lives in options=; anything else is a plain bad keyword.
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            ParallelEventProcessor(datastore, input_batch_size=8)
        # Reader count, queue depth, worker pipeline and a failure
        # policy of the reader's own are not options.
        assert len(dataclasses.fields(PEPOptions)) == 4
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            PEPOptions(worker_pipeline=2)
        # Dispatch batches are clamped to the input batch size.
        pep = ParallelEventProcessor(
            datastore, options=PEPOptions(input_batch_size=8,
                                          dispatch_batch_size=16))
        assert pep.dispatch_batch_size == 8


class TestParallel:
    def _run(self, datastore, ds, size, **pep_kwargs):
        lock = threading.Lock()
        seen: list = []

        def body(comm):
            pep = ParallelEventProcessor(datastore, comm=comm, **pep_kwargs)

            def handle(ev):
                with lock:
                    seen.append(ev.triple())

            return pep.process(ds, handle)

        stats = mpirun(body, size, timeout=60.0)
        return seen, stats

    def test_exactly_once_delivery(self, datastore, populated):
        ds, expected = populated
        seen, stats = self._run(datastore, ds, 4, options=PEPOptions(
            input_batch_size=16, dispatch_batch_size=4))
        assert sorted(seen) == expected

    def test_work_split_across_workers(self, datastore, populated):
        ds, expected = populated
        seen, stats = self._run(datastore, ds, 5, options=PEPOptions(
            input_batch_size=16, dispatch_batch_size=4))
        workers = [s for s in stats if s.role == "worker"]
        readers = [s for s in stats if s.role == "reader"]
        assert len(readers) == 1
        assert sum(w.events_processed for w in workers) == len(expected)
        # Load balancing is demand-driven: thread scheduling decides the
        # exact split, so only require that the work actually spread.
        assert sum(1 for w in workers if w.events_processed > 0) >= 2

    def test_reader_serving_accounting(self, datastore, populated):
        ds, expected = populated
        seen, stats = self._run(datastore, ds, 3, options=PEPOptions(
            input_batch_size=32, dispatch_batch_size=8))
        reader = next(s for s in stats if s.role == "reader")
        assert reader.events_loaded == len(expected)
        assert sum(reader.served.values()) == len(expected)

    def test_products_through_pep(self, datastore, populated):
        ds, expected = populated
        lock = threading.Lock()
        energies: list = []

        def body(comm):
            pep = ParallelEventProcessor(
                datastore, comm=comm,
                options=PEPOptions(input_batch_size=16,
                                   dispatch_batch_size=4),
                products=[(vector_of(Slice), "slices")],
            )

            def handle(ev):
                slices = ev.load(vector_of(Slice), label="slices")
                with lock:
                    energies.extend(s.energy for s in slices)

            return pep.process(ds, handle)

        mpirun(body, 4, timeout=60.0)
        assert len(energies) == 3 * len(expected)
        assert sum(energies) == len(expected) * (0.0 + 1.0 + 2.0)

    def test_multiple_readers(self, datastore, populated):
        ds, expected = populated
        # One reader per four ranks, at most one per event database.
        seen, stats = self._run(datastore, ds, 8, options=PEPOptions(
            input_batch_size=16, dispatch_batch_size=4))
        readers = [s for s in stats if s.role == "reader"]
        assert len(readers) == 2
        assert sorted(seen) == expected

    def test_reduction_pattern(self, datastore, populated):
        """The paper's app: MPI-reduce selected slice IDs to rank 0."""
        ds, expected = populated

        def body(comm):
            pep = ParallelEventProcessor(
                datastore, comm=comm,
                options=PEPOptions(input_batch_size=16,
                                   dispatch_batch_size=4),
                products=[(vector_of(Slice), "slices")],
            )
            selected: list = []

            def handle(ev):
                for s in ev.load(vector_of(Slice), label="slices"):
                    if s.energy > 1.5:  # "candidate selection"
                        selected.append(s.slice_id)

            pep.process(ds, handle)
            return comm.reduce(sorted(selected), op=SUM, root=0)

        results = mpirun(body, 4, timeout=60.0)
        assert len(sorted(results[0])) == len(expected)  # one slice per event

    def test_dataset_is_walked_once_per_pass(self, datastore, populated,
                                             monkeypatch):
        """Rank 0 lists the runs and their subruns and broadcasts them:
        a 2-rank pass over 3 runs sends 4 hierarchy listings, not 4 per
        rank."""
        ds, expected = populated
        prefixes: list = []
        list_keys = DatabaseHandle.list_keys_multi

        def counted(self, prefixes_asked, *args, **kwargs):
            prefixes.append(len(prefixes_asked[0]))
            return list_keys(self, prefixes_asked, *args, **kwargs)

        monkeypatch.setattr(DatabaseHandle, "list_keys_multi", counted)
        seen, _ = self._run(datastore, ds, 2, options=PEPOptions(
            input_batch_size=16, dispatch_batch_size=4))
        assert sorted(seen) == expected
        hierarchy = [n for n in prefixes if n < keys.SUBRUN_KEY_LEN]
        assert hierarchy.count(keys.UUID_LEN) == 1  # the runs
        assert hierarchy.count(keys.RUN_KEY_LEN) == 3  # each run's subruns

    def test_a_failed_walk_fails_every_rank(self, datastore, populated,
                                           monkeypatch):
        ds, _ = populated

        def broken(self, dataset):
            raise HEPnOSError("walk broke")

        monkeypatch.setattr(ParallelEventProcessor, "_all_subruns", broken)
        raised: dict = {}

        def body(comm):
            pep = ParallelEventProcessor(datastore, comm=comm)
            try:
                pep.process(ds, lambda ev: None)
            except HEPnOSError as exc:
                raised[comm.rank] = str(exc)

        mpirun(body, 3, timeout=60.0)
        assert sorted(raised) == [0, 1, 2]
        assert all("walk broke" in message for message in raised.values())

    def test_two_ranks_minimum(self, datastore, populated):
        ds, expected = populated
        seen, _ = self._run(datastore, ds, 2, options=PEPOptions(
            input_batch_size=16, dispatch_batch_size=4))
        assert sorted(seen) == expected
