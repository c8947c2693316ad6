"""Tests for the Boost-style binary serialization archives."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SerializationError
from repro.serial import (
    InputArchive,
    OutputArchive,
    dumps,
    loads,
    register_type,
    registered_type,
    serializable,
    type_name,
)


@serializable("test.Particle")
class Particle:
    """The example type from the paper's Listing 1."""

    def __init__(self, x=0.0, y=0.0, z=0.0):
        self.x, self.y, self.z = x, y, z

    def serialize(self, ar):
        self.x = ar.io(self.x)
        self.y = ar.io(self.y)
        self.z = ar.io(self.z)

    def __eq__(self, other):
        return (self.x, self.y, self.z) == (other.x, other.y, other.z)


@dataclasses.dataclass
class Hit:
    plane: int = 0
    cell: int = 0
    adc: float = 0.0


register_type(Hit, "test.Hit")


class TestPrimitives:
    @pytest.mark.parametrize(
        "value",
        [None, True, False, 0, 1, -1, 2**70, -(2**70), 3.14, -0.0, "", "héllo",
         b"", b"\x00\xff", complex(1, -2)],
    )
    def test_roundtrip(self, value):
        assert loads(dumps(value)) == value

    def test_nan(self):
        assert math.isnan(loads(dumps(float("nan"))))

    def test_inf(self):
        assert loads(dumps(float("inf"))) == float("inf")

    def test_bool_not_confused_with_int(self):
        assert loads(dumps(True)) is True
        assert loads(dumps(1)) == 1
        assert not isinstance(loads(dumps(1)), bool)


class TestContainers:
    def test_list(self):
        assert loads(dumps([1, "a", None, [2.5]])) == [1, "a", None, [2.5]]

    def test_tuple_preserved(self):
        value = (1, (2, 3))
        out = loads(dumps(value))
        assert out == value
        assert isinstance(out, tuple)

    def test_dict(self):
        value = {"a": 1, 2: [3], (4,): "x"}
        assert loads(dumps(value)) == value

    def test_set_and_frozenset(self):
        assert loads(dumps({1, 2, 3})) == {1, 2, 3}
        out = loads(dumps(frozenset({"a", "b"})))
        assert out == frozenset({"a", "b"})
        assert isinstance(out, frozenset)

    def test_set_canonical_encoding(self):
        # Same set contents -> identical bytes, regardless of insertion order.
        s1 = {i for i in range(100)}
        s2 = {i for i in reversed(range(100))}
        assert dumps(s1) == dumps(s2)


class TestNumpy:
    @pytest.mark.parametrize("dtype", ["<f8", "<f4", "<i4", "<u8", "<i2", "|b1"])
    def test_dtypes(self, dtype):
        arr = np.arange(12).astype(dtype).reshape(3, 4)
        out = loads(dumps(arr))
        assert out.dtype == np.dtype(dtype)
        assert np.array_equal(out, arr)

    def test_empty_array(self):
        arr = np.zeros((0, 3))
        out = loads(dumps(arr))
        assert out.shape == (0, 3)

    def test_non_contiguous(self):
        arr = np.arange(20).reshape(4, 5)[:, ::2]
        out = loads(dumps(arr))
        assert np.array_equal(out, arr)

    def test_object_dtype_rejected(self):
        with pytest.raises(SerializationError):
            dumps(np.array([object()]))

    def test_result_is_writable(self):
        out = loads(dumps(np.arange(3)))
        out[0] = 42  # frombuffer results are read-only unless copied


class TestObjects:
    def test_particle_roundtrip(self):
        p = Particle(1.0, 2.0, 3.0)
        assert loads(dumps(p)) == p

    def test_vector_of_particles(self):
        vp = [Particle(float(i), 0.0, -float(i)) for i in range(5)]
        assert loads(dumps(vp)) == vp

    def test_dataclass_roundtrip(self):
        h = Hit(plane=3, cell=17, adc=99.5)
        out = loads(dumps(h))
        assert out == h
        assert isinstance(out, Hit)

    def test_nested_object_in_dict(self):
        value = {"hits": [Hit(1, 2, 3.0)], "meta": Particle(0, 0, 0)}
        out = loads(dumps(value))
        assert out["hits"][0] == Hit(1, 2, 3.0)

    def test_unregistered_types_autoregister(self):
        class Local:
            def __init__(self):
                self.v = 5

            def serialize(self, ar):
                self.v = ar.io(self.v)

        out = loads(dumps(Local()))
        assert out.v == 5

    def test_type_name(self):
        assert type_name(Particle) == "test.Particle"
        assert type_name(Particle(0, 0, 0)) == "test.Particle"
        assert type_name(Hit) == "test.Hit"

    def test_registered_type_lookup(self):
        assert registered_type("test.Particle") is Particle
        with pytest.raises(SerializationError):
            registered_type("no.such.Type")

    def test_conflicting_registration_rejected(self):
        class Other:
            pass

        with pytest.raises(SerializationError):
            register_type(Other, "test.Particle")

    def test_unregistered_namesake_is_refused(self):
        """An unregistered class whose default name another class holds
        is refused, never written under the other class's name (which
        ``loads`` would then rebuild as the other class)."""
        energy = dataclasses.make_dataclass(
            "NamesakeHit", [("energy", float, dataclasses.field(default=0.0))])
        charge = dataclasses.make_dataclass(
            "NamesakeHit", [("charge", float, dataclasses.field(default=0.0))])
        register_type(energy)
        assert loads(dumps(energy(1.5))) == energy(1.5)
        with pytest.raises(SerializationError, match="already registered"):
            dumps(charge(2.5))

    def test_reregistration_is_noop(self):
        register_type(Particle, "test.Particle")

    def test_unserializable_rejected(self):
        with pytest.raises(SerializationError):
            dumps(object())


class TestArchiveAPI:
    def test_call_syntax(self):
        ar = OutputArchive()
        ar(1)
        ar("two")
        reader = InputArchive(ar.getvalue())
        assert reader() == 1
        assert reader() == "two"
        assert reader.at_end()

    def test_trailing_bytes_detected(self):
        with pytest.raises(SerializationError):
            loads(dumps(1) + b"\x00")

    def test_truncated_detected(self):
        blob = dumps("hello world")
        with pytest.raises(SerializationError):
            loads(blob[:-3])

    def test_unknown_tag(self):
        with pytest.raises(SerializationError):
            loads(b"\xfe")


json_like = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=20)
    | st.binary(max_size=20),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=8), children, max_size=5),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(json_like)
def test_roundtrip_property(value):
    assert loads(dumps(value)) == value


@settings(max_examples=100, deadline=None)
@given(st.integers())
def test_int_roundtrip_property(value):
    assert loads(dumps(value)) == value


class TestVersioning:
    def test_version_stored_and_delivered(self):
        from repro.serial import class_version

        class Track:
            def __init__(self, length=0.0, width=0.0):
                self.length = length
                self.width = width

            def serialize(self, ar, version):
                self.length = ar.io(self.length)
                if version >= 2:
                    self.width = ar.io(self.width)

        register_type(Track, "test.v.Track", version=2)
        assert class_version(Track) == 2
        out = loads(dumps(Track(3.0, 4.0)))
        assert (out.length, out.width) == (3.0, 4.0)

    def test_old_data_readable_by_new_code(self):
        """Write with a v1 class, read with a v2 class of the same name."""
        import repro.serial.archive as archive

        class TrackV1:
            def __init__(self, length=0.0):
                self.length = length

            def serialize(self, ar, version):
                self.length = ar.io(self.length)

        register_type(TrackV1, "test.evolve.Track", version=1)
        blob = dumps(TrackV1(7.5))

        # Simulate a software upgrade: same name, new field, new version.
        del archive._BY_NAME["test.evolve.Track"]
        del archive._BY_TYPE[TrackV1]

        class TrackV2:
            def __init__(self, length=0.0, width=-1.0):
                self.length = length
                self.width = width

            def serialize(self, ar, version):
                self.length = ar.io(self.length)
                if version >= 2:
                    self.width = ar.io(self.width)

        register_type(TrackV2, "test.evolve.Track", version=2)
        out = loads(blob)
        assert isinstance(out, TrackV2)
        assert out.length == 7.5
        assert out.width == -1.0  # default: field absent in v1 data

    def test_versionless_serialize_still_works(self):
        assert loads(dumps(Particle(1, 2, 3))) == Particle(1, 2, 3)

    def test_negative_version_rejected(self):
        class X:
            pass

        with pytest.raises(SerializationError):
            register_type(X, "test.v.X", version=-1)


@dataclasses.dataclass
class Cell:
    plane: int = 0
    adc: float = 0.0


@dataclasses.dataclass
class Vertex:
    x: float = 0.0
    y: float = 0.0
    flag: int = 0


register_type(Cell, "test.memo.Cell")
register_type(Vertex, "test.memo.Vertex")


def table_value(cls, columns: dict) -> bytes:
    """The typed table value of ``cls`` rows held in ``columns``."""
    from repro.serial.compiled import plan_table

    layout = plan_table(cls, {k: v.dtype for k, v in columns.items()})
    n = len(next(iter(columns.values())))
    return layout.value(layout.records(columns, np.arange(n)), 0, n)


def cells(n: int, base: int = 0) -> tuple:
    plane = np.arange(base, base + n, dtype="<i4")
    adc = plane.astype("<f8") / 2
    return (table_value(Cell, {"plane": plane, "adc": adc}),
            [Cell(int(p), float(a)) for p, a in zip(plane, adc)])


def vertices(n: int, base: int = 0) -> tuple:
    x = np.arange(base, base + n, dtype="<f4")
    flag = np.arange(n, dtype="<u2") % 3
    return (table_value(Vertex, {"x": x, "y": -x, "flag": flag}),
            [Vertex(float(a), float(-a), int(f)) for a, f in zip(x, flag)])


class TestTableHeaderMemo:
    """A table value whose header repeats the last one parsed skips the
    parse; every other value takes the full parse and its refusals."""

    def test_alternating_classes_round_trip(self):
        values = [cells(4, 10 * i) if i % 2 else vertices(3, 10 * i)
                  for i in range(8)]
        for value, rows in values + values[::-1]:
            assert loads(value) == rows
            assert loads(memoryview(bytearray(value))) == rows
        (cv, crows), (vv, vrows) = cells(2), vertices(2)
        # Both layouts inside one decode: a list of the two tables.
        assert loads(bytes((7, 3)) + cv + vv + cv) == [crows, vrows, crows]

    def test_reregistered_version_refuses_old_table_when_warm(self):
        @dataclasses.dataclass
        class Evolving:
            n: int = 0

        register_type(Evolving, "test.memo.Evolving", version=1)
        value = table_value(Evolving, {"n": np.arange(3, dtype="<i8")})
        assert loads(value) == [Evolving(0), Evolving(1), Evolving(2)]
        assert loads(value) == [Evolving(0), Evolving(1), Evolving(2)]
        register_type(Evolving, "test.memo.Evolving", version=2)
        with pytest.raises(SerializationError, match="class version 1"):
            loads(value)
        with pytest.raises(SerializationError, match="class version 1"):
            loads(value)

    def test_truncated_table_raises_when_warm(self):
        value, rows = cells(5)
        assert loads(value) == rows
        header = len(value) - 5 * 12 - 1  # records, then the row count
        for cut in (len(value) - 1, len(value) - 12, header + 1, header,
                    header - 1, 3, 1):
            loads(value)  # warm the memo with the whole header
            with pytest.raises(SerializationError):
                loads(value[:cut])
            with pytest.raises(SerializationError):
                loads(memoryview(value)[:cut])
        with pytest.raises(SerializationError, match="trailing"):
            loads(value + b"\x00")

    def test_threads_decoding_different_layouts(self):
        import threading

        start = threading.Barrier(2)
        wrong: list = []

        def decode(make):
            value, rows = make(6)
            start.wait()
            for _ in range(3000):
                got = loads(value)
                if got != rows or type(got[0]) is not type(rows[0]):
                    wrong.append(got)
                    return

        threads = [threading.Thread(target=decode, args=(make,))
                   for make in (cells, vertices)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not wrong
