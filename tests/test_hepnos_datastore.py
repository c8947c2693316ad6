"""Integration tests: DataStore + containers against a deployed service."""

import pytest

from conftest import deploy
from repro.errors import ContainerNotFound, HEPnOSError, ProductNotFound
from repro.hepnos import DataStore, LoadPlan, WriteBatch, vector_of
from repro.mercury import Fabric
from repro.serial import serializable


@serializable("nova.TestParticle")
class Particle:
    def __init__(self, x=0.0, y=0.0, z=0.0):
        self.x, self.y, self.z = x, y, z

    def serialize(self, ar):
        self.x = ar.io(self.x)
        self.y = ar.io(self.y)
        self.z = ar.io(self.z)

    def __eq__(self, other):
        return (self.x, self.y, self.z) == (other.x, other.y, other.z)

    def __repr__(self):
        return f"Particle({self.x}, {self.y}, {self.z})"


class TestDatasets:
    def test_create_and_lookup(self, datastore):
        ds = datastore.create_dataset("fermilab/nova")
        assert ds.path == "fermilab/nova"
        assert datastore["fermilab/nova"] == ds
        assert "fermilab/nova" in datastore
        assert "fermilab" in datastore  # intermediate created too

    def test_missing_dataset(self, datastore):
        with pytest.raises(ContainerNotFound):
            datastore["ghost"]
        assert "ghost" not in datastore

    def test_create_idempotent(self, datastore):
        a = datastore.create_dataset("x/y")
        b = datastore.create_dataset("x/y")
        assert a.uuid == b.uuid

    def test_nested_creation(self, datastore):
        ds = datastore.create_dataset("a")
        child = ds.create_dataset("b")
        assert child.path == "a/b"
        assert [d.path for d in ds.datasets()] == ["a/b"]

    def test_root_listing(self, datastore):
        datastore.create_dataset("alpha")
        datastore.create_dataset("beta/inner")
        roots = sorted(d.path for d in datastore.datasets())
        assert roots == ["alpha", "beta"]

    def test_listing_excludes_grandchildren(self, datastore):
        datastore.create_dataset("top/mid/leaf")
        assert [d.path for d in datastore["top"].datasets()] == ["top/mid"]

    def test_uuid_stable_across_clients(self, fabric, service, datastore):
        datastore.create_dataset("shared")
        other = DataStore.connect(fabric, service)
        assert other.dataset_uuid("shared") == datastore.dataset_uuid("shared")


class TestRunsSubrunsEvents:
    def test_create_access(self, datastore):
        ds = datastore.create_dataset("d")
        run = ds.create_run(43)
        subrun = run.create_subrun(56)
        event = subrun.create_event(25)
        assert ds[43] == run
        assert run[56] == subrun
        assert subrun[25] == event
        assert event.triple() == (43, 56, 25)

    def test_missing_containers(self, datastore):
        ds = datastore.create_dataset("d2")
        with pytest.raises(ContainerNotFound):
            ds[99]
        run = ds.create_run(1)
        with pytest.raises(ContainerNotFound):
            run[99]
        subrun = run.create_subrun(1)
        with pytest.raises(ContainerNotFound):
            subrun[99]

    def test_contains(self, datastore):
        ds = datastore.create_dataset("d3")
        ds.create_run(7)
        assert 7 in ds
        assert 8 not in ds

    def test_iteration_ascending(self, datastore):
        """Paper II-C3: children iterate in ascending numeric order."""
        ds = datastore.create_dataset("iter")
        for n in (300, 5, 1_000_000, 42):
            ds.create_run(n)
        assert [r.number for r in ds] == [5, 42, 300, 1_000_000]

    def test_nested_iteration(self, datastore):
        ds = datastore.create_dataset("nested")
        run = ds.create_run(1)
        for s in range(3):
            subrun = run.create_subrun(s)
            for e in range(4):
                subrun.create_event(e)
        triples = [ev.triple() for ev in ds.events()]
        assert len(triples) == 12
        assert triples == sorted(triples)

    def test_runs_pagination(self, datastore):
        ds = datastore.create_dataset("paged")
        for n in range(50):
            ds.create_run(n)
        assert [r.number for r in ds.runs(limit=10)] == list(range(10))
        assert [r.number for r in ds.runs(start_after=44)] == list(range(45, 50))

    def test_sibling_isolation(self, datastore):
        ds = datastore.create_dataset("iso")
        r1 = ds.create_run(1)
        r2 = ds.create_run(2)
        r1.create_subrun(10)
        r2.create_subrun(20)
        assert [s.number for s in r1] == [10]
        assert [s.number for s in r2] == [20]

    def test_large_event_numbers(self, datastore):
        ds = datastore.create_dataset("big")
        subrun = ds.create_run(1).create_subrun(1)
        big = (1 << 64) - 1
        subrun.create_event(big)
        assert [e.number for e in subrun] == [big]


class TestListingRoundTrips:
    """A listing page shorter than asked for is the last: no round trip
    is spent on an empty page to learn that the children ran out."""

    @pytest.fixture()
    def inline(self):
        fabric = Fabric()
        return fabric, DataStore.connect(fabric, deploy(fabric))

    @staticmethod
    def subrun_of(datastore, events):
        subrun = datastore.create_dataset("listed").create_run(1) \
                          .create_subrun(1)
        with WriteBatch(datastore) as batch:
            for e in range(events):
                subrun.create_event(e, batch=batch)
        return subrun

    def test_listing_a_subrun_is_one_rpc(self, inline):
        fabric, datastore = inline
        subrun = self.subrun_of(datastore, 64)
        fabric.stats.reset()
        assert [e.number for e in subrun.events()] == list(range(64))
        assert fabric.stats.rpc_count == 1

    @pytest.mark.parametrize("events, rpcs", [(40, 3), (48, 4), (0, 1)])
    def test_only_a_full_page_asks_again(self, inline, events, rpcs):
        fabric, datastore = inline
        subrun = self.subrun_of(datastore, events)
        fabric.stats.reset()
        listed = list(datastore.list_child_keys("events", subrun.key,
                                                page=16))
        assert listed == [e.key for e in
                          (subrun.event(n) for n in range(events))]
        assert fabric.stats.rpc_count == rpcs
        fabric.stats.reset()
        assert len(list(datastore.list_child_keys(
            "events", subrun.key, limit=16, page=16))) == min(events, 16)
        assert fabric.stats.rpc_count == 1

    def test_dataset_listing_is_one_rpc(self, inline):
        fabric, datastore = inline
        for name in ("a", "b", "c"):
            datastore.create_dataset(name)
        fabric.stats.reset()
        assert [ds.path for ds in datastore.datasets()] == ["a", "b", "c"]
        assert fabric.stats.rpc_count == 1


class TestProducts:
    def test_store_load_object(self, datastore):
        ds = datastore.create_dataset("prod")
        event = ds.create_run(1).create_subrun(1).create_event(1)
        p = Particle(1.0, 2.0, 3.0)
        event.store(p, label="reco")
        assert event.load(Particle, label="reco") == p

    def test_store_load_vector(self, datastore):
        """The paper's Listing 1: store an std::vector<Particle>."""
        ds = datastore.create_dataset("prod2")
        event = ds.create_run(1).create_subrun(1).create_event(1)
        vp1 = [Particle(float(i), 0.0, -float(i)) for i in range(5)]
        event.store(vp1, label="tracker")
        vp2 = event.load(vector_of(Particle), label="tracker")
        assert vp2 == vp1

    def test_missing_product(self, datastore):
        ds = datastore.create_dataset("prod3")
        event = ds.create_run(1).create_subrun(1).create_event(1)
        with pytest.raises(ProductNotFound):
            event.load(Particle, label="nope")
        assert not event.has_product(Particle, label="nope")

    def test_same_label_different_types_coexist(self, datastore):
        ds = datastore.create_dataset("prod4")
        event = ds.create_run(1).create_subrun(1).create_event(1)
        event.store(Particle(1, 1, 1), label="x")
        event.store([Particle(2, 2, 2)], label="x")
        assert event.load(Particle, label="x") == Particle(1, 1, 1)
        assert event.load(vector_of(Particle), label="x") == [Particle(2, 2, 2)]

    def test_products_on_runs_and_subruns(self, datastore):
        ds = datastore.create_dataset("prod5")
        run = ds.create_run(1)
        subrun = run.create_subrun(1)
        run.store(Particle(9, 9, 9), label="calib")
        subrun.store(Particle(8, 8, 8), label="calib")
        assert run.load(Particle, label="calib") == Particle(9, 9, 9)
        assert subrun.load(Particle, label="calib") == Particle(8, 8, 8)

    def test_empty_list_requires_explicit_type(self, datastore):
        ds = datastore.create_dataset("prod6")
        event = ds.create_run(1).create_subrun(1).create_event(1)
        with pytest.raises(HEPnOSError, match="empty list"):
            event.store([], label="x")
        event.store([], label="x", type_name=vector_of(Particle))
        assert event.load(vector_of(Particle), label="x") == []

    def test_bulk_product_load(self, datastore):
        ds = datastore.create_dataset("prod7")
        subrun = ds.create_run(1).create_subrun(1)
        events = [subrun.create_event(i) for i in range(20)]
        for i, event in enumerate(events):
            if i % 2 == 0:
                event.store(Particle(float(i), 0, 0), label="p")
        values = datastore.load_products(
            LoadPlan([e.key for e in events], [(Particle, "p")])
        )["nova.TestParticle", "p"]
        for i, value in enumerate(values):
            if i % 2 == 0:
                assert value == Particle(float(i), 0, 0)
            else:
                assert value is None

    def test_default_label(self, datastore):
        ds = datastore.create_dataset("prod8")
        event = ds.create_run(1).create_subrun(1).create_event(1)
        event.store(Particle(1, 2, 3))
        assert event.load(Particle) == Particle(1, 2, 3)


class TestCrossClientVisibility:
    def test_second_client_sees_data(self, fabric, service, datastore):
        ds = datastore.create_dataset("visible")
        event = ds.create_run(1).create_subrun(2).create_event(3)
        event.store(Particle(5, 5, 5), label="shared")
        other = DataStore.connect(fabric, service)
        loaded = other["visible"][1][2][3].load(Particle, label="shared")
        assert loaded == Particle(5, 5, 5)
