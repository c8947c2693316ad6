"""Columnar ingest: the table encoder, the loader that drives it, and the
packed ``put_multi`` framing its write batches travel in.

The oracle throughout is the row-object path the loader used to take:
build one object per row with ``column[i].item()`` values and ``dumps``
the event's list.  It survives in the loader only as the fallback for
classes the table plan declines, and here as :func:`reference_ingest`.
"""

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import deploy
from repro.errors import CorruptionError
from repro.faults.retry import RETRYABLE_ERRORS
from repro.hdf5lite import H5LiteFile
from repro.hepnos import (
    AsyncEngine,
    AsynchronousWriteBatch,
    DataLoader,
    DataStore,
    WriteBatch,
    discover_schema,
    vector_of,
)
from repro.hepnos.loader import _python_field_name
from repro.mercury import Engine, Fabric
from repro.serial import dumps, fast_path, loads, register_type
from repro.serial.compiled import plan_table
from repro.yokan import MemoryBackend, YokanClient, YokanProvider, packed, wire
from repro.yokan.client import frame_put_multi

# -- the table encoder against dumps of row objects ---------------------------

DTYPES = ["<f4", "<f8", "<f2", "|i1", "<i2", "<i4", "<i8",
          "|u1", "<u2", "<u4", "<u8", ">i4", ">f8", "|b1"]

_ROW_CLASSES: dict = {}


def row_class(dtypes: tuple) -> type:
    """One registered dataclass per column signature (fields c0, c1, ...)."""
    cls = _ROW_CLASSES.get(dtypes)
    if cls is None:
        name = "Rows_" + "_".join(d.strip("<>|") + ("be" if d[0] == ">" else "")
                                  for d in dtypes)
        cls = dataclasses.make_dataclass(name, [
            (f"c{i}", object, dataclasses.field(default=0))
            for i in range(len(dtypes))
        ])
        register_type(cls, f"test.ingest.{name}")
        _ROW_CLASSES[dtypes] = cls
    return cls


def column_values(dtype: str):
    dt = np.dtype(dtype)
    if dt.kind == "f":
        special = st.sampled_from([float("nan"), float("inf"), float("-inf"),
                                   -0.0, 0.0])
        return st.one_of(special, st.floats(width=dt.itemsize * 8))
    if dt.kind == "b":
        return st.booleans()
    info = np.iinfo(dt)
    edges = [info.min, info.max, 0, 1, 63, 64, 127, 128, 2**14 - 1, 2**14,
             2**63 - 1, 2**63, 2**63 + 1]
    edges = [v for v in edges if info.min <= v <= info.max]
    return st.one_of(st.sampled_from(edges),
                     st.integers(min_value=info.min, max_value=info.max))


@st.composite
def tables(draw, max_rows: int = 40):
    dtypes = tuple(draw(st.lists(st.sampled_from(DTYPES), min_size=1,
                                 max_size=5)))
    n = draw(st.integers(min_value=0, max_value=max_rows))
    columns = [
        np.array(draw(st.lists(column_values(d), min_size=n, max_size=n)),
                 dtype=d)
        for d in dtypes
    ]
    return dtypes, columns


def reference_rows(cls, names, columns) -> list:
    n = len(columns[0])
    return [cls(**{name: column[i].item()
                   for name, column in zip(names, columns)})
            for i in range(n)]


class TestTableEncoder:
    @settings(max_examples=150, deadline=None)
    @given(tables(), st.data())
    def test_matches_dumps_of_row_objects(self, table, data):
        dtypes, columns = table
        cls = row_class(dtypes)
        names = [f"c{i}" for i in range(len(dtypes))]
        plan = plan_table(cls, {name: column.dtype
                                for name, column in zip(names, columns)})
        assert plan is not None and plan.fields == tuple(names)
        encoded = plan.encode(columns)
        rows = reference_rows(cls, names, columns)
        n = len(rows)
        assert encoded.list_value(0, n) == dumps(rows)
        a = data.draw(st.integers(0, n))
        b = data.draw(st.integers(a, n))
        assert encoded.list_value(a, b) == dumps(rows[a:b])
        # and it reads back: decoding then re-encoding is the identity
        assert dumps(loads(encoded.list_value(a, b))) == dumps(rows[a:b])

    def test_every_integer_width_at_its_extremes(self):
        for dtype in DTYPES:
            dt = np.dtype(dtype)
            if dt.kind not in "iu":
                continue
            info = np.iinfo(dt)
            values = sorted({info.min, info.max, 0, 1, info.max // 2,
                             info.min // 2} | {
                sign * (2 ** (7 * k) + d)
                for k in range(1, 10) for d in (-1, 0, 1) for sign in (1, -1)
                if info.min <= sign * (2 ** (7 * k) + d) <= info.max})
            column = np.array(values, dtype=dt)
            cls = row_class((dtype,))
            plan = plan_table(cls, {"c0": column.dtype})
            rows = reference_rows(cls, ["c0"], [column])
            assert plan.encode([column]).list_value(0, len(rows)) == dumps(rows)

    def test_more_than_127_rows_in_one_event(self):
        column = np.arange(300, dtype="<i4")
        cls = row_class(("<i4",))
        rows = reference_rows(cls, ["c0"], [column])
        encoded = plan_table(cls, {"c0": column.dtype}).encode([column])
        assert encoded.list_value(0, 300) == dumps(rows)
        assert encoded.list_value(10, 200) == dumps(rows[10:200])

    def test_field_order_is_the_class_order_not_the_column_order(self):
        @dataclasses.dataclass
        class Swapped:
            second: int = 0
            first: float = 0.0

        register_type(Swapped, "test.ingest.Swapped")
        columns = {"first": np.array([1.5, -2.0], dtype="<f4"),
                   "second": np.array([7, -300], dtype="<i2")}
        plan = plan_table(Swapped, {k: v.dtype for k, v in columns.items()})
        assert plan.fields == ("second", "first")
        rows = [Swapped(second=7, first=1.5), Swapped(second=-300, first=-2.0)]
        value = plan.encode([columns[f] for f in plan.fields]).list_value(0, 2)
        assert value == dumps(rows)

    def test_a_field_kind_that_differs_from_the_column_kind(self):
        # The compiled encoder guards on the value's type, not the
        # annotation; so does the table encoder, through the dtype.
        @dataclasses.dataclass
        class Mistyped:
            x: int = 0
            flag: float = 0.0

        register_type(Mistyped, "test.ingest.Mistyped")
        columns = [np.array([0.25, np.nan]), np.array([True, False])]
        plan = plan_table(Mistyped, {"x": columns[0].dtype,
                                     "flag": columns[1].dtype})
        rows = reference_rows(Mistyped, ["x", "flag"], columns)
        assert plan.encode(columns).list_value(0, 2) == dumps(rows)

    def test_declines_what_it_cannot_vouch_for(self):
        f8 = np.dtype("<f8")

        @dataclasses.dataclass
        class Custom:
            x: float = 0.0

            def serialize(self, ar):
                self.x = ar.io(self.x)

        @dataclasses.dataclass
        class Versioned:
            x: float = 0.0

            def serialize(self, ar, version):
                self.x = ar.io(self.x)

        @dataclasses.dataclass
        class PostInit:
            x: float = 0.0

            def __post_init__(self):
                self.x = abs(self.x)

        @dataclasses.dataclass
        class OwnInit:
            x: float = 0.0

            def __init__(self, x=0.0):
                self.x = 2 * x

        @dataclasses.dataclass
        class Plain:
            x: float = 0.0
            y: float = 0.0

        register_type(Custom, "test.ingest.Custom")
        register_type(Versioned, "test.ingest.Versioned", version=2)
        register_type(PostInit, "test.ingest.PostInit")
        register_type(OwnInit, "test.ingest.OwnInit")
        register_type(Plain, "test.ingest.Plain")
        for cls in (Custom, Versioned, PostInit, OwnInit):
            assert plan_table(cls, {"x": f8}) is None, cls
        assert plan_table(Plain, {"x": f8, "y": f8}) is not None
        # a field with no column, a column with no field
        assert plan_table(Plain, {"x": f8}) is None
        assert plan_table(Plain, {"x": f8, "y": f8, "z": f8}) is None
        # a column .item() does not turn into float, int or bool
        assert plan_table(Plain, {"x": f8, "y": np.dtype("<c16")}) is None
        assert plan_table(Plain, {"x": f8, "y": np.dtype("S4")}) is None
        # the interpreted oracle, when pinned, is what runs
        with fast_path(False):
            assert plan_table(Plain, {"x": f8, "y": f8}) is None

    def test_registered_version_is_in_the_header(self):
        @dataclasses.dataclass
        class Evolved:
            x: int = 0

        register_type(Evolved, "test.ingest.Evolved", version=3)
        column = np.array([5], dtype="<i8")
        value = plan_table(Evolved, {"x": column.dtype}).encode(
            [column]).list_value(0, 1)
        assert value == dumps([Evolved(5)])


# -- the loader against the retired row-object ingest -------------------------


def reference_ingest(datastore, dataset_path: str, path: str,
                     label: str = "") -> None:
    """The loader's ingest as it was: an object per row, ``event.store``."""
    dataset = datastore.create_dataset(dataset_path)
    with H5LiteFile.open(path) as h5, WriteBatch(datastore) as batch:
        for schema in discover_schema(h5):
            group = h5.root.group(schema.group_path)
            runs = group.read(schema.id_columns["run"]).astype(np.int64)
            subruns = group.read(schema.id_columns["subrun"]).astype(np.int64)
            events = group.read(schema.id_columns["event"]).astype(np.int64)
            columns = {name: group.read(name)
                       for name, _ in schema.value_columns}
            cls = DataLoader(datastore, dataset_path)._class_for(schema)
            if len(runs) == 0:
                continue
            order = np.lexsort((events, subruns, runs))
            ids = np.stack([runs[order], subruns[order], events[order]])
            cuts = np.nonzero(np.any(np.diff(ids, axis=1) != 0, axis=0))[0] + 1
            for rows in np.split(order, cuts):
                r, s, e = (int(runs[rows[0]]), int(subruns[rows[0]]),
                           int(events[rows[0]]))
                event = (dataset.create_run(r, batch=batch)
                         .create_subrun(s, batch=batch)
                         .create_event(e, batch=batch))
                products = [
                    cls(**{_python_field_name(name): columns[name][idx].item()
                           for name, _ in schema.value_columns})
                    for idx in rows
                ]
                event.store(products, label=label, type_name=vector_of(cls),
                            batch=batch)


class Service:
    """A small inline deployment whose databases can be read back whole."""

    def __init__(self):
        self.fabric = Fabric(threaded=False)
        self.servers = deploy(self.fabric, num_nodes=2, num_providers=2,
                              event_databases=2, product_databases=2,
                              run_databases=1, subrun_databases=1)
        self.datastore = DataStore.connect(self.fabric, self.servers)

    def stored(self) -> dict:
        """Every database's key -> value map."""
        return {
            (str(server.address), pid, name): dict(backend.scan())
            for server in self.servers
            for pid, provider in server.providers.items()
            for name, backend in provider.databases.items()
        }


def assert_same_store(path: str, label: str = "") -> dict:
    new, old = Service(), Service()
    DataLoader(new.datastore, "identity/ds", label=label).ingest_file(path)
    reference_ingest(old.datastore, "identity/ds", path, label=label)
    stored = new.stored()
    assert stored == old.stored()
    return stored


def write_table(h5, group: str, class_name: str, ids, columns: dict) -> None:
    g = h5.create_group(group)
    g.attrs["class"] = class_name
    for name, column in zip(("run", "subrun", "evt"), ids):
        g.create_dataset(name, np.asarray(column, dtype=np.int64))
    for name, column in columns.items():
        g.create_dataset(name, column)


class TestStoreIdentity:
    def test_nova_file_stores_the_same_bytes(self, nova_file):
        path, triples = nova_file
        stored = assert_same_store(path, label="caf")
        products = [k for db in stored.values() for k in db if b"#" in k]
        assert len(products) == 2 * len(triples)

    def test_interleaved_ids_declined_and_reordered_classes(self, tmp_path):
        @dataclasses.dataclass
        class Reordered:
            weight: float = 0.0
            flag: bool = False
            count: int = 0

        @dataclasses.dataclass
        class Doubling:
            value: float = 0.0

            def __post_init__(self):
                self.value = 2 * self.value

        register_type(Reordered, "test.identity.reordered")
        register_type(Doubling, "test.identity.doubling")
        rng = np.random.default_rng(11)
        n = 64
        ids = (rng.integers(1, 3, n), rng.integers(0, 3, n),
               rng.integers(0, 6, n))
        path = str(tmp_path / "mixed.h5l")
        with H5LiteFile.create(path) as h5:
            write_table(h5, "a/reordered", "test.identity.reordered", ids, {
                "count": rng.integers(0, 2**64, n, dtype=np.uint64),
                "flag": rng.integers(0, 2, n).astype(bool),
                "weight": rng.normal(size=n).astype("<f4"),
            })
            write_table(h5, "b/doubling", "test.identity.doubling", ids, {
                "value": rng.normal(size=n),
            })
            write_table(h5, "c/generated", "test.identity.generated", ids, {
                "rec.x": rng.normal(size=n).astype("<f2"),
                "n-hit": rng.integers(-2**31, 2**31, n).astype("<i4"),
            })
            write_table(h5, "d/empty", "test.identity.empty",
                        ([], [], []), {"x": np.zeros(0)})
        stored = assert_same_store(path)
        # the declined class really went through its __init__
        doubled = [loads(v) for db in stored.values() for k, v in db.items()
                   if k.endswith(b"#vector<test.identity.doubling>")]
        assert doubled and all(isinstance(rows[0], Doubling)
                               for rows in doubled)

    def test_chunked_encoding_keeps_events_whole(self, tmp_path, monkeypatch):
        from repro.hepnos import loader

        monkeypatch.setattr(loader, "_ENCODE_CHUNK_ROWS", 5)
        rng = np.random.default_rng(3)
        sizes = [1, 1, 9, 2, 5, 6, 1, 3]     # 9 and 6 exceed a chunk
        events = np.repeat(np.arange(len(sizes)), sizes)
        rng.shuffle(events)
        n = len(events)
        path = str(tmp_path / "chunks.h5l")
        with H5LiteFile.create(path) as h5:
            write_table(h5, "t", "test.identity.chunked",
                        (np.ones(n), np.zeros(n), events),
                        {"v": rng.integers(-1000, 1000, n)})
        assert_same_store(path)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(table=tables(max_rows=30), data=st.data())
    def test_any_table_any_id_order(self, tmp_path, table, data):
        dtypes, columns = table
        n = len(columns[0])
        small = st.integers(min_value=0, max_value=3)
        ids = [data.draw(st.lists(small, min_size=n, max_size=n))
               for _ in range(3)]
        cls = row_class(dtypes)
        path = str(tmp_path / f"any-{len(os.listdir(tmp_path))}.h5l")
        with H5LiteFile.create(path) as h5:
            write_table(h5, "t", f"test.ingest.{cls.__name__}", ids,
                        {f"c{i}": column
                         for i, column in enumerate(columns)})
        assert_same_store(path)


# -- put_multi framing --------------------------------------------------------


@pytest.fixture()
def world():
    fabric = Fabric()
    provider = YokanProvider(Engine(fabric, "sm://server/0"), provider_id=1,
                             databases={"events": MemoryBackend()})
    client = YokanClient(Engine(fabric, "sm://client/0"))
    return provider, client.database_handle("sm://server/0", 1, "events")


class TestPutMultiFraming:
    def test_bulk_buffer_is_one_packed_group(self, world):
        _provider, db = world
        pairs = [(b"k1", b"v1"), (b"container", b""), (b"k3", bytes(300))]
        name, bulk, nbytes, crc = frame_put_multi(db._engine, "events", pairs)
        assert name == "events" and nbytes == len(bulk)
        assert crc == wire.checksum(bulk.view())
        (group,) = packed.unpack_groups(bulk.view(), 1)
        assert [(k, bytes(v)) for k, v in group] == pairs

    def test_empty_batch_sends_nothing(self, world):
        provider, db = world
        assert db.put_multi([]) == 0
        assert db.put_multi_nb([]).wait() == 0
        assert len(provider.databases["events"]) == 0

    def test_zero_length_container_values(self, world):
        provider, db = world
        pairs = [(bytes([i]) * 40, b"") for i in range(50)]
        assert db.put_multi(pairs) == 50
        backend = provider.databases["events"]
        assert dict(backend.scan()) == dict(pairs)
        assert all(type(v) is bytes for _, v in backend.scan())

    def test_bytes_like_pairs_are_stored_as_bytes(self, world):
        provider, db = world
        db.put_multi([(bytearray(b"ka"), memoryview(b"va")),
                      (memoryview(b"kb"), bytearray(b"vb"))])
        assert dict(provider.databases["events"].scan()) == {
            b"ka": b"va", b"kb": b"vb"}

    @pytest.mark.parametrize("damage", ["bit_flip", "truncated",
                                        "truncated_with_matching_crc",
                                        "trailing_garbage"])
    def test_damaged_bulk_buffer_is_a_retryable_corruption(self, world,
                                                            damage):
        provider, db = world
        pairs = [(f"k{i}".encode(), bytes([i]) * 20) for i in range(10)]
        name, bulk, nbytes, crc = frame_put_multi(db._engine, "events", pairs)
        if damage == "bit_flip":
            bulk._buffer[nbytes // 2] ^= 0x10
        elif damage == "truncated":
            nbytes -= 7
        elif damage == "truncated_with_matching_crc":
            nbytes -= 7
            crc = wire.checksum(bulk.view(0, nbytes))
        else:
            bulk._buffer += b"\x00\x00"
            nbytes += 2
            crc = wire.checksum(bulk.view())
        with pytest.raises(CorruptionError) as caught:
            db._call("yokan.put_multi", (name, bulk, nbytes, crc))
        assert isinstance(caught.value, RETRYABLE_ERRORS)
        assert db.client.retry_policy.retryable(caught.value)
        # nothing of a damaged batch is stored
        assert len(provider.databases["events"]) == 0

    def test_sync_async_and_engine_flushes_land_the_same_pairs(self):
        def fill(batch):
            for i in range(300):
                parent = b"parent-%03d" % (i % 7)
                batch.append_placed("events", parent, parent + b"/%d" % i, b"")
                batch.append_placed("products", parent,
                                    parent + b"#%d" % i, bytes([i % 251]) * i)

        sync, raw, engine = Service(), Service(), Service()
        with WriteBatch(sync.datastore, flush_threshold=128) as batch:
            fill(batch)
        with AsynchronousWriteBatch(raw.datastore,
                                    flush_threshold=128) as batch:
            assert batch.async_engine is None
            fill(batch)
        AsyncEngine(engine.datastore, max_inflight=2)
        with AsynchronousWriteBatch(engine.datastore,
                                    flush_threshold=128) as batch:
            assert batch.async_engine is not None
            fill(batch)
        stored = sync.stored()
        assert sum(len(db) for db in stored.values()) == 600
        assert raw.stored() == stored
        assert engine.stored() == stored
