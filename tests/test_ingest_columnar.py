"""Columnar ingest: the typed table value, the loader that writes it, the
lanes that read it, and the packed ``put_multi`` framing its write
batches travel in.

The oracle throughout is the row-object path the loader used to take:
build one object per row with ``column[i].item()`` values and ``dumps``
the event's list.  It survives in the loader only as the fallback for
classes the table plan declines, and here as :func:`reference_ingest`.
"""

import dataclasses
import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import deploy
from repro.bedrock import BedrockServer, default_hepnos_config
from repro.errors import CorruptionError, SerializationError
from repro.faults.retry import RETRYABLE_ERRORS
from repro.hdf5lite import H5LiteFile
from repro.hepnos import (
    DataLoader,
    DataStore,
    LoadPlan,
    WriteBatch,
    discover_schema,
    vector_of,
)
from repro.hepnos.keys import product_key
from repro.hepnos.loader import _python_field_name
from repro.mercury import Engine, Fabric
from repro.serial import columnar, dumps, loads, register_type
from repro.serial import archive as _archive
from repro.serial.compiled import TABLE_DTYPES, _uvarint, plan_table
from repro.yokan import MemoryBackend, YokanClient, YokanProvider, packed, wire
from repro.yokan.client import frame_put_multi

# -- the table value against dumps of row objects -------------------------------

DTYPES = ["<f4", "<f8", "<f2", "|i1", "<i2", "<i4", "<i8",
          "|u1", "<u2", "<u4", "<u8", ">i4", ">f8", ">f2", ">u8", "|b1"]

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


def column_of(dtype: str, n: int):
    """An ``n``-row column of ``dtype``.  Floats are drawn as bit
    patterns, so NaN payloads, signalling NaNs, infinities, -0.0 and
    subnormals all occur in the column's own width."""
    dt = np.dtype(dtype)
    if dt.kind == "b":
        values = st.booleans()
    else:
        bits = 8 * dt.itemsize
        if dt.kind == "f":
            info = np.iinfo(f"u{dt.itemsize}")
            exponent = {2: 0x7C00, 4: 0x7F800000, 8: 0x7FF << 52}[dt.itemsize]
            edges = [0, 1 << (bits - 1), exponent, exponent | 1 << (bits - 1),
                     exponent | 1, exponent | exponent >> 3,
                     1, exponent - 1]
        else:
            info = np.iinfo(dt)
            edges = [info.min, info.max, 0, 1, 63, 64, 127, 128, 2**14 - 1,
                     2**14, 2**63 - 1, 2**63, 2**63 + 1]
            edges = [v for v in edges if info.min <= v <= info.max]
        values = st.one_of(st.sampled_from(edges),
                           st.integers(min_value=info.min, max_value=info.max))
    column = st.lists(values, min_size=n, max_size=n)
    if dt.kind == "f":
        unsigned = np.dtype(f"u{dt.itemsize}").newbyteorder(dt.byteorder)
        return column.map(lambda v: np.array(v, dtype=unsigned).view(dt))
    return column.map(lambda v: np.array(v, dtype=dt))


@st.composite
def tables(draw, max_rows: int = 40):
    dtypes = tuple(draw(st.lists(st.sampled_from(DTYPES), min_size=1,
                                 max_size=5)))
    n = draw(st.sampled_from([0, 1]) | st.integers(0, max_rows))
    return dtypes, [draw(column_of(d, n)) for d in dtypes]


def reference_rows(cls, names, columns) -> list:
    n = len(columns[0])
    return [cls(**{name: column[i].item()
                   for name, column in zip(names, columns)})
            for i in range(n)]


def table_of(cls, names, columns):
    """``(layout, records)`` of the whole table, rows in column order."""
    layout = plan_table(cls, {name: column.dtype
                              for name, column in zip(names, columns)})
    assert layout is not None
    return layout, layout.records(dict(zip(names, columns)),
                                  np.arange(len(columns[0])))


def same_column(got, expected) -> bool:
    """Same kind of column (typed array or value list), same contents."""
    if isinstance(expected, np.ndarray):
        return (isinstance(got, np.ndarray) and got.dtype == expected.dtype
                and got.tobytes() == expected.tobytes())
    return type(got) is list and dumps(got) == dumps(expected)


class TestTableEncoder:
    @settings(max_examples=150, deadline=None)
    @given(tables(), st.data())
    def test_matches_dumps_of_row_objects(self, table, data):
        """Decoding gives the row objects; re-encoding them gives the
        row encoding (the oracle) byte for byte; projecting the records
        gives the arrays transposing the objects gives.  A field that
        transposes to a value list (a u8 at or above 2**63, a kind the
        field default disagrees with) is not projectable: the value
        travels raw and decodes to the same objects."""
        dtypes, columns = table
        cls = row_class(dtypes)
        names = [f"c{i}" for i in range(len(dtypes))]
        layout, records = table_of(cls, names, columns)
        assert layout.fields == tuple(names)
        rows = reference_rows(cls, names, columns)
        n = len(rows)
        a = data.draw(st.integers(0, n))
        b = data.draw(st.integers(a, n))
        for lo, hi in ((0, n), (a, b)):
            value = layout.value(records, lo, hi)
            assert value[0] == _archive._T_TABLE
            decoded = loads(value)
            assert type(decoded) is list and len(decoded) == hi - lo
            assert all(type(row) is cls for row in decoded)
            assert dumps(decoded) == dumps(rows[lo:hi])
            stored = columnar.table_records(value)
            if hi == lo:
                assert stored is None       # like an empty list: not columnar
                continue
            assert (stored[0].cls, stored[0].dtype) == (cls, layout.dtype)
            _count, transposed = columnar.to_columns(rows[lo:hi])
            numeric = [name for name in names
                       if isinstance(transposed[name], np.ndarray)]
            projected = columnar.project_records(layout, stored[1], numeric)
            for name in numeric:
                assert same_column(projected[name], transposed[name]), name
                assert (columnar.pack_field_column([projected], name)
                        == columnar.pack_field_column([transposed], name))
            statuses, _blocks = YokanProvider._project([value], names)
            if numeric == names:
                assert statuses == [hi - lo]
                continue
            assert statuses == [value]
            assert dumps(loads(statuses[0])) == dumps(rows[lo:hi])
            with pytest.raises(SerializationError):
                columnar.project_records(layout, stored[1], names)

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
            layout, records = table_of(cls, ["c0"], [column])
            assert loads(layout.value(records, 0, len(values))) == [
                cls(v) for v in values]

    def test_u8_past_int64_degrades_the_projected_field_only(self):
        """A ``<u8`` value past int64 sends its own value raw when its
        field is asked for; its neighbours and its other fields still
        project."""
        @dataclasses.dataclass
        class Wide:
            big: int = 0
            small: int = 0

        register_type(Wide, "test.ingest.Wide")
        columns = [np.array([1, 2, 2**63, 2**64 - 1], dtype="<u8"),
                   np.array([1, 2, 3, 4], dtype="<u8")]
        layout, records = table_of(Wide, ["big", "small"], columns)
        values = [layout.value(records, 0, 2), layout.value(records, 2, 4)]
        projected = columnar.project_records(layout, bytes(records),
                                             ["small"])
        assert projected["small"].dtype == np.dtype("<i8")
        with pytest.raises(SerializationError, match="not projectable"):
            columnar.project_records(layout, bytes(records), ["big"])
        statuses, blocks = YokanProvider._project(values, ["big", "small"])
        assert statuses == [2, values[1]]
        assert [columnar.column_from_block(*block, 2).tolist()
                for block in blocks] == [[1, 2], [1, 2]]
        assert loads(statuses[1]) == [Wide(2**63, 3), Wide(2**64 - 1, 4)]
        statuses, _blocks = YokanProvider._project(values, ["small"])
        assert statuses == [2, 2]

    def test_more_than_127_rows_in_one_event(self):
        column = np.arange(300, dtype="<i4")
        cls = row_class(("<i4",))
        rows = reference_rows(cls, ["c0"], [column])
        layout, records = table_of(cls, ["c0"], [column])
        assert loads(layout.value(records, 0, 300)) == rows
        assert loads(layout.value(records, 10, 200)) == rows[10:200]

    def test_field_order_is_the_class_order_not_the_column_order(self):
        @dataclasses.dataclass
        class Swapped:
            second: int = 0
            first: float = 0.0

        register_type(Swapped, "test.ingest.Swapped")
        columns = {"first": np.array([1.5, -2.0], dtype="<f4"),
                   "second": np.array([7, -300], dtype="<i2")}
        layout = plan_table(Swapped, {k: v.dtype for k, v in columns.items()})
        assert layout.fields == ("second", "first")
        rows = [Swapped(second=7, first=1.5), Swapped(second=-300, first=-2.0)]
        value = layout.value(layout.records(columns, np.arange(2)), 0, 2)
        assert loads(value) == rows and dumps(loads(value)) == dumps(rows)

    def test_a_field_kind_that_differs_from_the_column_kind(self):
        # The row encoding writes the value's type, not the
        # annotation's; the table follows the column's dtype likewise.
        # A field whose column kind is not its plan kind does not
        # project (to_columns gives it as a value list), so the value
        # travels raw and decodes to the row objects.
        @dataclasses.dataclass
        class Mistyped:
            x: int = 0
            flag: float = 0.0

        register_type(Mistyped, "test.ingest.Mistyped")
        columns = [np.array([0.25, np.nan]), np.array([True, False])]
        rows = reference_rows(Mistyped, ["x", "flag"], columns)
        layout, records = table_of(Mistyped, ["x", "flag"], columns)
        value = layout.value(records, 0, 2)
        assert dumps(loads(value)) == dumps(rows)
        _count, transposed = columnar.to_columns(rows)
        for field in ("x", "flag"):
            assert type(transposed[field]) is list
            with pytest.raises(SerializationError, match="not projectable"):
                columnar.project_records(layout, bytes(records), [field])
            statuses, _blocks = YokanProvider._project([value], [field])
            assert statuses == [value]
            assert dumps(loads(statuses[0])) == dumps(rows)

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

        @dataclasses.dataclass(kw_only=True)
        class KeywordOnly:
            x: float = 0.0

        @dataclasses.dataclass(frozen=True)
        class Frozen:
            x: float = 0.0

        @dataclasses.dataclass
        class InitOnly:
            scale: dataclasses.InitVar[float] = 1.0
            x: float = 0.0

        @dataclasses.dataclass
        class Derived:
            x: float = 0.0
            y: float = dataclasses.field(default=1.0, init=False)

        @dataclasses.dataclass
        class Plain:
            x: float = 0.0
            y: float = 0.0

        register_type(Custom, "test.ingest.Custom")
        register_type(Versioned, "test.ingest.Versioned", version=2)
        register_type(PostInit, "test.ingest.PostInit")
        register_type(OwnInit, "test.ingest.OwnInit")
        register_type(KeywordOnly, "test.ingest.KeywordOnly")
        register_type(Frozen, "test.ingest.Frozen")
        register_type(InitOnly, "test.ingest.InitOnly")
        register_type(Derived, "test.ingest.Derived")
        register_type(Plain, "test.ingest.Plain")
        for cls in (Custom, Versioned, PostInit, OwnInit, KeywordOnly, Frozen,
                    InitOnly):
            assert plan_table(cls, {"x": f8}) is None, cls
        assert plan_table(Derived, {"x": f8, "y": f8}) is None
        assert plan_table(Plain, {"x": f8, "y": f8}) is not None
        # a field with no column, a column with no field
        assert plan_table(Plain, {"x": f8}) is None
        assert plan_table(Plain, {"x": f8, "y": f8, "z": f8}) is None
        # a column whose dtype a table record cannot hold
        for odd in ("<c16", "S4", "<M8[s]", np.longdouble):
            assert plan_table(Plain, {"x": f8, "y": np.dtype(odd)}) is None

    def test_registered_version_is_in_the_header(self):
        @dataclasses.dataclass
        class Evolved:
            x: int = 0

        register_type(Evolved, "test.ingest.Evolved", version=3)
        column = np.array([5], dtype="<i8")
        layout, records = table_of(Evolved, ["x"], [column])
        value = layout.value(records, 0, 1)
        assert value == table_bytes(
            "test.ingest.Evolved", 3, [TABLE_DTYPES.index(np.dtype("<i8"))],
            1, column.tobytes())
        assert loads(value) == [Evolved(5)]


# -- the row reader against numpy's -------------------------------------------


def bit_patterns(dtype: np.dtype):
    """One field of ``dtype`` as an unsigned bit pattern: any pattern, or
    an edge -- NaN payloads, signalling NaNs, -0.0, infinities,
    subnormals, integers at their sign bit (a u8 at 2**63), and bool
    bytes other than 0 and 1."""
    bits = 8 * dtype.itemsize
    sign = 1 << (bits - 1)
    if dtype.kind == "b":
        edges = [0, 1, 2, 255]
    elif dtype.kind == "f":
        mantissa = {2: 10, 4: 23, 8: 52}[dtype.itemsize]
        exponent = (sign - 1) & ~((1 << mantissa) - 1)
        quiet = 1 << (mantissa - 1)
        edges = [0, sign, 1, sign | 1, (1 << mantissa) - 1, exponent - 1,
                 exponent, exponent | sign, exponent | 1,
                 exponent | 0x101, exponent | quiet, exponent | quiet | 5 | sign]
    else:
        edges = [0, 1, sign - 1, sign, sign + 1, (1 << bits) - 1]
    return st.sampled_from(edges) | st.integers(0, (1 << bits) - 1)


def comparable(row: tuple) -> tuple:
    """``row`` with each float as its bits and each value's type kept."""
    return tuple((type(v), struct.pack("<d", v) if type(v) is float else v)
                 for v in row)


def assert_rows_read_as_numpy_reads_them(dtypes, data) -> None:
    n = data.draw(st.integers(0, 12))
    records = b"".join(data.draw(bit_patterns(dtype)).to_bytes(
        dtype.itemsize, "little") for _ in range(n) for dtype in dtypes)
    names = [f"c{i}" for i in range(len(dtypes))]
    layout = plan_table(row_class(tuple(dtype.str for dtype in dtypes)),
                        dict(zip(names, dtypes)))
    expected = [comparable(row)
                for row in np.frombuffer(records, layout.dtype).tolist()]
    for buffer in (records, memoryview(records)):
        assert [comparable(row) for row in layout.rows(buffer)] == expected


class TestRowReader:
    """``TableLayout.rows`` -- struct's ``iter_unpack``, or numpy for a
    layout with an ``f2`` field -- gives the Python values
    ``np.frombuffer(records, dtype).tolist()`` gives, bit for bit."""

    @pytest.mark.parametrize("dtype", TABLE_DTYPES, ids=str)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_every_dtype_reads_as_numpy_reads_it(self, dtype, data):
        assert_rows_read_as_numpy_reads_them([dtype], data)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from(TABLE_DTYPES), min_size=1, max_size=6),
           st.data())
    def test_mixed_records_read_as_numpy_reads_them(self, dtypes, data):
        assert_rows_read_as_numpy_reads_them(dtypes, data)

    def test_an_f2_nan_payload_survives(self):
        """Why ``f2`` stays on numpy: struct's half float would hand back
        the canonical NaN, and the row encoding would differ."""
        column = np.array([0x7D01, 0x3C00], dtype="<u2").view("<f2")
        cls = row_class(("<f2",))
        rows = reference_rows(cls, ["c0"], [column])
        layout, records = table_of(cls, ["c0"], [column])
        assert dumps(loads(layout.value(records, 0, 2))) == dumps(rows)
        (canonical,) = struct.unpack("<e", bytes(records[:2]))
        assert struct.pack("<d", canonical) != struct.pack("<d", rows[0].c0)


# -- damaged table values ---------------------------------------------------------


def table_bytes(name: str, version: int, codes, rows: int,
                payload: bytes) -> bytes:
    """A table value spelled out field by field (see ARCHITECTURE.md)."""
    encoded = name.encode("utf-8")
    return b"".join((bytes([_archive._T_TABLE]), _uvarint(len(encoded)),
                     encoded, _uvarint(version), _uvarint(len(codes)),
                     bytes(codes), _uvarint(rows), payload))


@dataclasses.dataclass
class Sound:
    x: float = 0.0
    k: int = 0


@dataclasses.dataclass
class HasSerialize:
    x: float = 0.0
    k: int = 0

    def serialize(self, ar):
        self.x = ar.io(self.x)
        self.k = ar.io(self.k)


register_type(Sound, "test.ingest.Sound", version=2)
register_type(HasSerialize, "test.ingest.HasSerialize", version=2)

F4, I2 = TABLE_DTYPES.index(np.dtype("<f4")), TABLE_DTYPES.index(np.dtype("<i2"))
PAYLOAD = np.array([(1.5, -3), (0.25, 7), (-2.0, 300)],
                   dtype=[("x", "<f4"), ("k", "<i2")]).tobytes()
SOUND = table_bytes("test.ingest.Sound", 2, [F4, I2], 3, PAYLOAD)

DAMAGED = {
    "unknown_dtype_code": table_bytes("test.ingest.Sound", 2,
                                      [F4, len(TABLE_DTYPES)], 3, PAYLOAD),
    "dtype_code_255": table_bytes("test.ingest.Sound", 2, [255, I2], 3, PAYLOAD),
    "one_field_short": table_bytes("test.ingest.Sound", 2, [F4], 3, PAYLOAD),
    "one_field_over": table_bytes("test.ingest.Sound", 2, [F4, I2, I2], 3,
                                  PAYLOAD),
    "no_fields": table_bytes("test.ingest.Sound", 2, [], 3, b""),
    "class_with_serialize": table_bytes("test.ingest.HasSerialize", 2,
                                        [F4, I2], 3, PAYLOAD),
    "unregistered_class": table_bytes("test.ingest.Nobody", 2, [F4, I2], 3,
                                      PAYLOAD),
    "name_not_utf8": SOUND.replace(b"Sound", b"So\xffnd"),
    "older_version": table_bytes("test.ingest.Sound", 1, [F4, I2], 3, PAYLOAD),
    "newer_version": table_bytes("test.ingest.Sound", 3, [F4, I2], 3, PAYLOAD),
    "payload_one_byte_short": SOUND[:-1],
    "payload_one_row_short": table_bytes("test.ingest.Sound", 2, [F4, I2], 3,
                                         PAYLOAD[:-6]),
    "more_rows_than_payload": table_bytes("test.ingest.Sound", 2, [F4, I2], 4,
                                          PAYLOAD),
    "fewer_rows_than_payload": table_bytes("test.ingest.Sound", 2, [F4, I2], 2,
                                           PAYLOAD),
    "trailing_byte": SOUND + b"\x00",
}


class TestDamagedTables:
    def test_the_sound_value_reads(self):
        assert loads(SOUND) == [Sound(1.5, -3), Sound(0.25, 7),
                                Sound(-2.0, 300)]
        layout, records = columnar.table_records(SOUND)
        assert layout.cls is Sound and bytes(records) == PAYLOAD

    @pytest.mark.parametrize("damage", sorted(DAMAGED))
    def test_row_lanes_raise_and_the_projection_declines(self, damage):
        value = DAMAGED[damage]
        with pytest.raises(SerializationError):
            loads(value)
        assert columnar.table_records(value) is None
        assert columnar.value_to_table(value) is None

    def test_truncation_at_every_offset(self):
        for cut in range(len(SOUND)):
            with pytest.raises(SerializationError):
                loads(SOUND[:cut])
            assert columnar.table_records(SOUND[:cut]) is None

    def test_damage_travels_raw_and_the_client_raises_it(self, datastore):
        """On the columns lane a damaged table is any other value the
        server cannot project: its bytes come back as the status, and
        the client's decode raises what ``loads`` raises."""
        subrun = (datastore.create_dataset("damaged").create_run(1)
                  .create_subrun(1))
        tname = vector_of(Sound).name
        events = {}
        for i, damage in enumerate(["sound"] + sorted(DAMAGED)):
            event = subrun.create_event(i)
            value = SOUND if damage == "sound" else DAMAGED[damage]
            target = datastore.placement.product_database_for(event.key)
            datastore.handle_for_target(target).put(
                product_key(event.key, "t", tname), value)
            events[damage] = (event, target, value)
        for damage, (event, target, value) in events.items():
            statuses, blocks = datastore.handle_for_target(target).scan_columns(
                [event.key], product_key(b"", "t", tname), ["k", "x"])
            plan = LoadPlan([event.key], [(vector_of(Sound), "t")],
                            columns=["k", "x"])
            if damage == "sound":
                assert statuses == [3]
                assert [dtype for dtype, _ in blocks] == ["<i8", "<f8"]
                assert datastore.load_products(plan).column("k").tolist() == [
                    -3, 7, 300]
                continue
            assert [bytes(s) for s in statuses] == [value]
            with pytest.raises(SerializationError):
                datastore.load_products(plan)
            with pytest.raises(SerializationError):
                event.load(vector_of(Sound), label="t")


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
    """The loader and the reference ingest leave the same keys in the
    same databases, and every value decodes to the same objects: what
    differs from the reference's bytes re-encodes to exactly them."""
    new, old = Service(), Service()
    DataLoader(new.datastore, "identity/ds", label=label).ingest_file(path)
    reference_ingest(old.datastore, "identity/ds", path, label=label)
    stored, reference = new.stored(), old.stored()
    assert stored.keys() == reference.keys()
    for database, pairs in stored.items():
        assert pairs.keys() == reference[database].keys()
        for key, value in pairs.items():
            expected = reference[database][key]
            if value != expected:
                assert value[0] == _archive._T_TABLE
                assert dumps(loads(value)) == expected
    return stored


def write_table(h5, group: str, class_name: str, ids, columns: dict) -> None:
    g = h5.create_group(group)
    g.attrs["class"] = class_name
    for name, column in zip(("run", "subrun", "evt"), ids):
        g.create_dataset(name, np.asarray(column, dtype=np.int64))
    for name, column in columns.items():
        g.create_dataset(name, column)


def products_of(stored: dict) -> list:
    return [value for db in stored.values() for key, value in db.items()
            if b"#" in key]


class TestStoreIdentity:
    def test_nova_file_stores_the_same_products(self, nova_file):
        path, triples = nova_file
        products = products_of(assert_same_store(path, label="caf"))
        assert len(products) == 2 * len(triples)
        # both file tables are of classes the loader generated: all tables
        assert {value[0] for value in products} == {_archive._T_TABLE}

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
        # the declined class really went through its __init__, and is
        # stored as the rows dumps gives
        doubled = [v for db in stored.values() for k, v in db.items()
                   if k.endswith(b"#vector<test.identity.doubling>")]
        assert doubled and all(
            v[0] == _archive._T_LIST and isinstance(loads(v)[0], Doubling)
            for v in doubled)

    def test_uneven_shuffled_events_stay_whole(self, tmp_path):
        rng = np.random.default_rng(3)
        sizes = [1, 1, 9, 2, 5, 6, 1, 3, 140]
        events = np.repeat(np.arange(len(sizes)), sizes)
        rng.shuffle(events)
        n = len(events)
        path = str(tmp_path / "uneven.h5l")
        with H5LiteFile.create(path) as h5:
            write_table(h5, "t", "test.identity.uneven",
                        (np.ones(n), np.zeros(n), events),
                        {"v": rng.integers(-1000, 1000, n)})
        products = products_of(assert_same_store(path))
        assert sorted(len(loads(value)) for value in products) == sorted(sizes)

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


# -- the columns lane over what the loader stores ------------------------------


def events_by_product_target(service, dataset_path: str) -> dict:
    """Product database target -> its event keys, in key order."""
    datastore = service.datastore
    by_target: dict = {}
    for run in datastore[dataset_path]:
        for subrun in run:
            for event in subrun:
                by_target.setdefault(
                    datastore.placement.product_database_for(event.key), []
                ).append(event.key)
    return by_target


def busiest_target(service, dataset_path: str) -> tuple:
    return max(events_by_product_target(service, dataset_path).items(),
               key=lambda item: len(item[1]))


def scan(service, target, keys, cls, fields, label=""):
    suffix = product_key(b"", label, vector_of(cls).name)
    statuses, blocks = service.datastore.handle_for_target(
        target).scan_columns(keys, suffix, fields)
    return ([bytes(s) if isinstance(s, memoryview) else s for s in statuses],
            [(dtype, bytes(payload)) for dtype, payload in blocks])


def provider_of(service, target):
    (server,) = [s for s in service.servers
                 if str(s.address) == str(target.address)]
    return server.providers[target.provider_id]


class TestColumnsLaneOverTables:
    def test_pages_are_byte_identical_to_a_row_encoded_store(self, nova_file):
        path, triples = nova_file
        tables_, rows = Service(), Service()
        DataLoader(tables_.datastore, "lanes/ds").ingest_file(path)
        reference_ingest(rows.datastore, "lanes/ds", path)
        targets = events_by_product_target(tables_, "lanes/ds")
        assert targets == events_by_product_target(rows, "lanes/ds")
        assert sum(len(keys) for keys in targets.values()) == len(triples)
        compared = 0
        for class_name in ("rec.slc", "rec.hdr"):
            cls = _archive.registered_type(class_name)
            every = [name for name, _kind in columnar.column_plan(cls)]
            for fields in (every, every[::-1][:3], every[:1]):
                for target, keys in targets.items():
                    page = scan(tables_, target, keys, cls, fields)
                    assert page == scan(rows, target, keys, cls, fields)
                    assert all(type(status) is int for status in page[0])
                    compared += 1
        assert compared >= 6

    def test_an_unknown_field_travels_row_wise(self, nova_file):
        path, _triples = nova_file
        service = Service()
        DataLoader(service.datastore, "lanes/ds").ingest_file(path)
        cls = _archive.registered_type("rec.slc")
        target, keys = busiest_target(service, "lanes/ds")
        statuses, blocks = scan(service, target, keys, cls, ["nhit", "nope"])
        assert all(status[0] == _archive._T_TABLE for status in statuses)
        assert blocks == [("<f8", b""), ("<f8", b"")]

    def test_overwriting_one_event_changes_exactly_that_event(self, nova_file):
        """``scan_columns`` keeps no state: the same request answers from
        the bytes the backend holds when it arrives, whichever verb put
        them there and whichever encoding the store uses."""
        path, _triples = nova_file
        fields = ["slice_id", "cal_e"]

        # Event 1 of the page is stored again the way a user stores:
        # row-encoded, two rows.
        def replacement(cls):
            return [cls(slice_id=-5, cal_e=0.5), cls(slice_id=-6, cal_e=2.0)]

        def put(service, target, key, cls):
            service.datastore.store_product(key, replacement(cls),
                                            type_name=vector_of(cls))

        def erase(service, target, key, cls):
            service.datastore.handle_for_target(target).erase(
                product_key(key, "", vector_of(cls).name))

        def replicate(service, target, key, cls):
            # What a backup does with a primary's forwarded overwrite.
            service.datastore.handle_for_target(target).replicate(
                [(product_key(key, "", vector_of(cls).name),
                  dumps(replacement(cls)))])

        def per_event(page):
            statuses, blocks = page
            bounds = np.concatenate(([0], np.cumsum(
                [status or 0 for status in statuses])))
            columns = [np.frombuffer(payload, dtype) for dtype, payload
                       in blocks]
            return [[col[lo:hi].tolist() for col in columns]
                    for lo, hi in zip(bounds[:-1], bounds[1:])]

        expected = {put: (2, [[-5, -6], [0.5, 2.0]]),
                    erase: (None, [[], []]),
                    replicate: (2, [[-5, -6], [0.5, 2.0]])}
        for ingest in ("tables", "rows"):
            for mutate, (status, rows) in expected.items():
                service = Service()
                if ingest == "tables":
                    DataLoader(service.datastore, "lanes/ds").ingest_file(path)
                else:
                    reference_ingest(service.datastore, "lanes/ds", path)
                cls = _archive.registered_type("rec.slc")
                target, keys = busiest_target(service, "lanes/ds")
                assert len(keys) >= 3
                before = scan(service, target, keys, cls, fields)
                assert scan(service, target, keys, cls, fields) == before
                mutate(service, target, keys[1], cls)
                after = scan(service, target, keys, cls, fields)
                assert scan(service, target, keys, cls, fields) == after
                assert after[0] == before[0][:1] + [status] + before[0][2:]
                old, new = per_event(before), per_event(after)
                assert new[1] == rows
                assert new[:1] + new[2:] == old[:1] + old[2:]

    @pytest.mark.parametrize("backend", ["map", "lsm"])
    def test_a_cold_pass_decodes_nothing_on_the_server(
            self, tmp_path, monkeypatch, backend):
        """Neither the first columnar pass over ingested data nor (on
        the durable LSM) the first one after every server lost its
        state and replayed its log turns a stored value into objects."""
        from repro.nova import GeneratorConfig, generate_file_set
        from repro.hepnos import PEPOptions
        from repro.workflows import HEPnOSWorkflow

        sample = generate_file_set(
            str(tmp_path / "files"), num_files=2, mean_events_per_file=24,
            config=GeneratorConfig(signal_fraction=0.05, events_per_subrun=16,
                                   subruns_per_run=4))
        durable = backend == "lsm"
        fabric = Fabric(threaded=True)
        servers = [BedrockServer(fabric, default_hepnos_config(
            f"sm://node{i}/hepnos", num_providers=2, event_databases=2,
            product_databases=2, run_databases=1, subrun_databases=1,
            backend=backend,
            storage_root=str(tmp_path / f"store{i}") if durable else None,
            durability_root=str(tmp_path / f"wal{i}") if durable else None,
        )) for i in range(2)]
        fabric.runtime.start()
        try:
            datastore = DataStore.connect(fabric, servers)

            def select(columnar_loads: bool):
                return HEPnOSWorkflow(
                    datastore, "lanes/cold", pep_options=PEPOptions(
                        input_batch_size=64, dispatch_batch_size=8,
                        columnar_loads=columnar_loads)).select(num_ranks=2)

            HEPnOSWorkflow(datastore, "lanes/cold").ingest(sample.paths,
                                                           num_ranks=1)
            decodes = []
            for name in ("value_to_table", "to_columns"):
                real = getattr(columnar, name)
                monkeypatch.setattr(
                    columnar, name,
                    lambda *a, _real=real, _name=name: (
                        decodes.append(_name), _real(*a))[1])
            cold = select(True)
            assert cold.accepted_ids and decodes == []
            if durable:
                for server in servers:
                    server.crash(lose_state=True)
                for server in servers:
                    server.restart()
                datastore.reconnect()
                datastore._product_cache.clear()
                assert select(True).accepted_ids == cold.accepted_ids
                assert decodes == []
            assert select(False).accepted_ids == cold.accepted_ids
        finally:
            fabric.runtime.shutdown()

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
        name, bulk, nbytes, crc = frame_put_multi(
            db._engine, "events", *map(list, zip(*pairs)))
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
        name, bulk, nbytes, crc = frame_put_multi(
            db._engine, "events", *map(list, zip(*pairs)))
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
