"""Round trips of the row codec, and its two writers against each other.

Every value the archive writes must decode to an equal value, and
re-encoding that value must give the same bytes.  ``dumps`` writes a
built-in value through an exact-class writer table; the ``isinstance``
chain of ``OutputArchive._write_interpreted`` is the reference, and the
table must give the bytes it gives (:class:`TestBuiltinDispatch`).
"""

import dataclasses
import enum
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serial import (
    archive as _archive,
    column_plan,
    dumps,
    loads,
    register_type,
    serializable,
)
from repro.serial.compiled import plan_table
from repro.errors import SerializationError


@serializable("fp.Scalar")
class Scalar:
    """Fixed-field serialize() class: floats, ints, bools, str, bytes."""

    def __init__(self, x=0.0, y=0.0, n=0, flag=False, name="", blob=b""):
        self.x = x
        self.y = y
        self.n = n
        self.flag = flag
        self.name = name
        self.blob = blob

    def serialize(self, ar):
        self.x = ar.io(self.x)
        self.y = ar.io(self.y)
        self.n = ar.io(self.n)
        self.flag = ar.io(self.flag)
        self.name = ar.io(self.name)
        self.blob = ar.io(self.blob)

    def __eq__(self, other):
        return vars(self) == vars(other)


@serializable("fp.Scalars")
@dataclasses.dataclass
class Scalars:
    """:class:`Scalar`'s fields as a dataclass field list."""

    x: float = 0.0
    y: float = 0.0
    n: int = 0
    flag: bool = False
    name: str = ""
    blob: bytes = b""


@serializable("fp.Point")
@dataclasses.dataclass
class Point:
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0
    detector: int = 0


@serializable("fp.Mixed")
@dataclasses.dataclass
class Mixed:
    label: str = ""
    values: list = dataclasses.field(default_factory=list)
    weight: float = 1.0
    meta: dict = dataclasses.field(default_factory=dict)


def interpreted_dumps(value):
    """``dumps`` through the ``isinstance`` chain alone (the exact-class
    writer table emptied)."""
    with mock.patch.object(_archive, "_ENCODERS", {}):
        return dumps(value)


#: the archive has one decoder.
interpreted_loads = loads


def assert_round_trips(value):
    """``value`` decodes back equal, its decode re-encodes to the same
    bytes, and the ``isinstance`` chain writes those bytes too."""
    blob = dumps(value)
    back = loads(blob)
    assert back == value
    assert dumps(back) == blob == interpreted_dumps(value)
    return back


floats = st.floats(allow_nan=False)
texts = st.text(max_size=64)
blobs = st.binary(max_size=64)
ints = st.integers(min_value=-(2 ** 70), max_value=2 ** 70)


class TestEligibility:
    """Which classes have a field plan (the column schema and the
    typed-table rule); every class round-trips either way."""

    def test_fixture_classes_are_planned(self):
        # a serialize method decides its own encoding: no plan
        assert column_plan(Scalar) is None
        assert column_plan(Scalars) == [
            ("x", float), ("y", float), ("n", int), ("flag", bool),
            ("name", str), ("blob", bytes)]
        assert column_plan(Point) == [
            ("x", float), ("y", float), ("z", float), ("detector", int)]
        assert column_plan(Mixed) == [
            ("label", str), ("values", None), ("weight", float),
            ("meta", None)]

    def test_nova_classes_are_planned(self):
        from repro.nova.datamodel import EventHeader, SliceData

        for cls in (SliceData, EventHeader):
            plan = column_plan(cls)
            assert [name for name, _kind in plan] == [
                f.name for f in dataclasses.fields(cls)]
            assert {kind for _name, kind in plan} <= {int, float}

    def test_nova_row_bytes_are_pinned(self):
        """The NOvA classes encode by their dataclass field list, to the
        bytes their hand-written ``serialize`` methods once wrote."""
        from repro.nova.datamodel import EventHeader, SliceData

        slc = SliceData(
            slice_id=2**40 + 7, nhit=-3, ncontplanes=130, cal_e=1.5,
            shower_e=-0.25, shower_len=1e300, cvn_e=0.1,
            cvn_mu=float("inf"), remid=-0.0, cosrej=2.0**-1074, vtx_x=3.0,
            vtx_y=-4.0, vtx_z=5.5, dist_to_edge=6.0, time=7.25, true_pdg=12)
        hdr = EventHeader(run=1, subrun=200, event=70000, pot=3.5e13,
                          trigger=1, nslices=4)
        name = b"\x0c\x0enova.SliceData\x00"
        floats = b"".join(b"\x04" + struct.pack("<d", v) for v in (
            1.5, -0.25, 1e300, 0.1, float("inf"), -0.0, 2.0**-1074, 3.0,
            -4.0, 5.5, 6.0, 7.25))
        assert dumps([slc, SliceData()]) == b"".join((
            b"\x07\x02", name, b"\x03\x8e\x80\x80\x80\x80\x40\x03\x05",
            b"\x03\x84\x02", floats, b"\x03\x18",
            name, b"\x03\x00" * 3, (b"\x04" + bytes(8)) * 12, b"\x03\x00"))
        assert dumps(hdr).hex() == (
            "0c106e6f76612e4576656e7448656164657200030203900303e0c508"
            "040000309112d5bf4203020308")
        assert loads(dumps(hdr)) == hdr

    def test_frozen_dataclass_has_no_plan(self):
        @serializable("fp.Frozen")
        @dataclasses.dataclass(frozen=True)
        class Frozen:
            a: int = 0

        # a frozen dataclass intercepts assignment, so no plan may
        # vouch for one
        assert column_plan(Frozen) is None
        assert plan_table(Frozen, {"a": np.dtype("<i8")}) is None

    def test_frozen_dataclass_round_trips_unplanned(self):
        @serializable("fp.FrozenPair")
        @dataclasses.dataclass(frozen=True)
        class FrozenPair:
            a: int = 0
            b: float = 0.0

        @serializable("fp.FrozenRequired")
        @dataclasses.dataclass(frozen=True)
        class FrozenRequired:
            a: int
            tags: tuple

        assert_round_trips(FrozenPair(1, 2.0))
        assert_round_trips([FrozenPair(-3, 0.5), FrozenPair()])
        assert_round_trips(FrozenRequired(7, ("x", 2)))
        assert column_plan(FrozenPair) is None
        assert column_plan(FrozenRequired) is None

    def test_versioned_serialize_round_trips_unplanned(self):
        @serializable("fp.Versioned", version=3)
        class Versioned:
            def __init__(self, v=1):
                self.v = v

            def serialize(self, ar, version=0):
                self.v = ar.io(self.v)

        assert column_plan(Versioned) is None
        obj = Versioned(41)
        assert loads(dumps(obj)).v == 41

    def test_variable_field_class_round_trips_unplanned(self):
        @serializable("fp.Variable")
        class Variable:
            def __init__(self, items=()):
                self.items = list(items)

            def serialize(self, ar):
                n = ar.io(len(self.items))
                if ar.is_output:
                    for item in self.items:
                        ar.io(item)
                else:
                    self.items = [ar.io(None) for _ in range(n)]

        # A serialize method (here a value-dependent field count)
        # has no plan.
        assert column_plan(Variable) is None
        obj = Variable([1, 2, 3])
        assert loads(dumps(obj)).items == [1, 2, 3]


class TestDifferential:
    @settings(max_examples=200, deadline=None)
    @given(floats, floats, ints, st.booleans(), texts, blobs)
    def test_serialize_class_bytes_identical(self, x, y, n, flag, name, blob):
        assert_round_trips(Scalar(x, y, n, flag, name, blob))

    @settings(max_examples=200, deadline=None)
    @given(floats, floats, floats, ints)
    def test_dataclass_bytes_identical(self, x, y, z, det):
        assert_round_trips(Point(x, y, z, det))

    @settings(max_examples=100, deadline=None)
    @given(texts, st.lists(floats, max_size=8), floats,
           st.dictionaries(texts, ints, max_size=4))
    def test_mixed_container_fields_identical(self, label, values, w, meta):
        assert_round_trips(Mixed(label, values, w, meta))

    @settings(max_examples=200, deadline=None)
    @given(floats, floats, ints, st.booleans(), texts, blobs)
    def test_cross_decode_both_directions(self, x, y, n, flag, name, blob):
        obj = Scalar(x, y, n, flag, name, blob)
        table_bytes = dumps(obj)
        chain_bytes = interpreted_dumps(obj)
        # what either writer wrote, the one decoder reads back.
        assert interpreted_loads(table_bytes) == obj
        assert loads(chain_bytes) == obj

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(floats, floats, floats, ints), max_size=16))
    def test_vectors_of_objects(self, rows):
        assert_round_trips([Point(*row) for row in rows])

    def test_wrong_typed_fields_round_trip(self):
        # A field holds whatever value it is given: each is written by
        # its own type's writer, whatever the field default's type.
        obj = Scalar(x=1, y="not a float", n=2.5, flag="yes",
                     name=7, blob=[1, 2])
        back = assert_round_trips(obj)
        assert vars(back) == vars(obj)


class TestVersioning:
    def test_version_bump_reads_old_data(self):
        @dataclasses.dataclass
        class Evolving:
            a: float = 0.0

        register_type(Evolving, "fp.Evolving", version=1)
        v1_bytes = dumps(Evolving(1.5))
        register_type(Evolving, "fp.Evolving", version=2)
        v2_bytes = dumps(Evolving(1.5))
        assert v1_bytes != v2_bytes  # version is in the header
        # Data written at the old version still decodes.
        assert loads(v1_bytes).a == 1.5
        assert loads(v2_bytes).a == 1.5


class TestInputForms:
    def test_loads_accepts_memoryview_and_bytearray(self):
        blob = dumps(Point(1.0, 2.0, 3.0, 4))
        expected = Point(1.0, 2.0, 3.0, 4)
        assert loads(memoryview(blob)) == expected
        assert loads(bytearray(blob)) == expected

    def test_truncated_archive_raises(self):
        blob = dumps(Scalar(1.0, 2.0, 3, True, "abc", b"xyz"))
        for cut in (1, len(blob) // 2, len(blob) - 1):
            with pytest.raises(SerializationError):
                loads(blob[:cut])

    def test_trailing_bytes_raise(self):
        with pytest.raises(SerializationError, match="trailing"):
            loads(dumps(1) + b"\x00")


# -- the built-in types' exact-class writers vs the interpreted chain -------


class Color(enum.IntEnum):
    RED = 1
    BLUE = -300


class Name(str):
    pass


class Blob(bytes):
    pass


_scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-2**70, max_value=2**70),
    st.floats(allow_nan=False), st.text(max_size=200),
    st.binary(max_size=200), st.binary(max_size=40).map(bytearray),
    st.binary(max_size=40).map(memoryview),
    st.integers(-2**62, 2**62).map(np.int64),
    st.floats(allow_nan=False, width=32).map(np.float32),
    st.sampled_from(list(Color)), st.text(max_size=20).map(Name),
    st.binary(max_size=20).map(Blob))
_hashable = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=8),
                      st.binary(max_size=8))
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=6),
                            st.lists(inner, max_size=6).map(tuple),
                            st.dictionaries(_hashable, inner, max_size=5)),
    max_leaves=25)


def _plain(value):
    """What a value decodes to: subclasses and views come back as the
    built-in the wire format has for them."""
    if isinstance(value, (bool, type(None))):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, str):
        return str(value)
    if isinstance(value, (bytes, bytearray, memoryview)):
        return bytes(value)
    if isinstance(value, (list, tuple)):
        return type(value)(_plain(item) for item in value)
    return {_plain(k): _plain(v) for k, v in value.items()}


class TestBuiltinDispatch:
    @settings(max_examples=300, deadline=None)
    @given(_values)
    def test_table_matches_the_interpreted_chain(self, value):
        encoded = dumps(value)
        assert encoded == interpreted_dumps(value)
        assert loads(encoded) == _plain(value)
        assert interpreted_loads(encoded) == _plain(value)

    def test_long_heads_take_the_varint_form(self):
        for value in ("x" * 128, b"y" * 20000, list(range(-200, 200)),
                      tuple("ab" * 100), {i: str(i) for i in range(300)},
                      2**63, -2**63 - 1, 63, 64, -64, -65):
            assert dumps(value) == interpreted_dumps(value)
            assert loads(dumps(value)) == value

    # Tuples of the shapes the point path's requests and answers took
    # while they travelled as archives, as the parent of the
    # dispatch-table change wrote them: the archive format may not drift.
    # (The point path's own layouts are pinned in test_wire_codec.py.)
    GOLDEN = [
        (("products-0", b"ev/0007", 8192),                 # yokan.get
         "0803050a70726f64756374732d30060765762f3030303703808001"),
        (("products-0", b"ev/0007", b"\x01\x02value"),     # yokan.put
         "0803050a70726f64756374732d30060765762f303030370607010276616c7565"),
        (("products-0", b"ev/0007"),                       # yokan.exists
         "0802050a70726f64756374732d30060765762f30303037"),
        (("events-1", b"ev/", b"", 128),                   # yokan.list_keys
         "080405086576656e74732d31060365762f0600038002"),
        (("ok", b"value"), "080205026f6b060576616c7565"),
        (("ok", False), "080205026f6b01"),
        (("ok", None), "080205026f6b00"),
        (("retry", 70000), "08020505726574727903e0c508"),
        (("err", "ServiceBusy", "tenant 'bench' over quota", 0.25),
         "08040503657272050b5365727669636542757379051974656e616e74202762656e"
         "636827206f7665722071756f746104000000000000d03f"),
        (("err", "KeyNotFound", "b'k'"),
         "08030503657272050b4b65794e6f74466f756e64050462276b27"),
    ]

    @pytest.mark.parametrize("value,golden", GOLDEN)
    def test_point_path_heads_are_pinned(self, value, golden):
        assert dumps(value).hex() == golden
        assert interpreted_dumps(value).hex() == golden
        assert loads(bytes.fromhex(golden)) == value
