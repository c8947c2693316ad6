"""The Yokan message codec (``repro.yokan.wire.encode`` / ``decode``):
every kind round-trips, and damaged bytes fail one way."""

import struct
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.errors import SerializationError
from repro.mercury import Engine, Fabric
from repro.yokan import wire

ENGINE = Engine(Fabric(), "sm://codec/0")
BULKS = [ENGINE.expose(bytearray(8)) for _ in range(2)]

bytes_like = st.one_of(st.binary(max_size=64),
                       st.binary(max_size=64).map(bytearray),
                       st.binary(max_size=64).map(memoryview))
#: what the archive escape carries: anything without a kind of its own
escaped = st.one_of(
    st.dictionaries(st.text(max_size=8), st.integers(), max_size=4),
    st.lists(st.tuples(st.binary(max_size=8), st.binary(max_size=8)),
             min_size=1, max_size=4),
    st.lists(st.text(max_size=8), min_size=1, max_size=4),
    st.integers(min_value=1 << 63) | st.integers(max_value=-(1 << 63) - 1),
    st.tuples(st.integers(), st.text(max_size=8)),
)
field = st.one_of(
    bytes_like,
    st.text(max_size=32),
    st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1),
    st.floats(allow_nan=False),
    st.none(),
    st.booleans(),
    st.lists(bytes_like, max_size=8),
    st.sampled_from(BULKS),
    escaped,
)
messages = st.lists(field, max_size=16).map(tuple)


def expected(value):
    """What a field decodes as: every bytes-like value is ``bytes``."""
    if isinstance(value, (bytearray, memoryview)):
        return bytes(value)
    if type(value) is list and all(
            isinstance(k, (bytes, bytearray, memoryview)) for k in value):
        return [bytes(k) for k in value]
    return value


@settings(max_examples=300, deadline=None)
@given(messages)
def test_every_kind_round_trips(fields):
    message = wire.encode(fields)
    assert type(message) is bytes
    want = tuple(map(expected, fields))
    for body in (message, bytearray(message), memoryview(message)):
        got = wire.decode(body)
        assert got == want
        for a, b in zip(got, want):
            assert type(a) is type(b)
    for bulk in (f for f in fields if any(f is b for b in BULKS)):
        assert any(g is bulk for g in wire.decode(message))


def decodes_or_refuses(body) -> None:
    """Any bytes decode to a tuple or raise ``SerializationError`` --
    never an ``IndexError``, ``struct.error``, ``UnicodeDecodeError``,
    ``MemoryError`` or ``RecursionError``."""
    try:
        assert type(wire.decode(body)) is tuple
    except SerializationError:
        pass


@settings(max_examples=500, deadline=None)
@given(messages, st.data())
def test_damaged_messages_decode_or_are_refused(fields, data):
    message = wire.encode(fields)
    cut = data.draw(st.integers(0, len(message)))
    decodes_or_refuses(message[:cut])
    flipped = bytearray(message)
    for at in data.draw(st.lists(st.integers(0, len(message) - 1),
                                 min_size=1, max_size=4)):
        flipped[at] ^= 1 << data.draw(st.integers(0, 7))
    decodes_or_refuses(bytes(flipped))


@settings(max_examples=500, deadline=None)
@given(st.binary(max_size=96),
       st.text(alphabet="bsqdn?kue", max_size=6))
def test_random_bytes_decode_or_are_refused(tail, kinds):
    decodes_or_refuses(tail)
    # the same bytes behind a well-formed head reach the field decoders
    decodes_or_refuses(bytes([len(kinds)]) + kinds.encode() + tail)


def test_a_key_count_beyond_the_message_is_refused_before_allocating():
    # 2**32 - 1 keys would be a 16 GiB length table; the message is 10B
    body = b"\x01k" + struct.pack("<II", 0xFFFFFFFF, 0)
    # compile the one-key-list layout outside the traced window
    assert wire.decode(wire.encode(([b"key"],))) == ([b"key"],)
    tracemalloc.start()
    try:
        with pytest.raises(SerializationError):
            wire.decode(body)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


MALFORMED = {
    "no head": b"",
    "head cut short": b"\x03sb",
    "a kind the codec lacks": b"\x01!" + bytes(4),
    "more fields than a message holds": bytes([17]) + b"n" * 17,
    "not UTF-8": b"\x01s" + struct.pack("<I", 2) + b"\xff\xfe",
    "no such bulk region": b"\x01u" + struct.pack("<Q", 1 << 62),
    "key lengths that miss the blob size":
        b"\x01k" + struct.pack("<III", 1, 3, 2) + b"abc",
    "an escape nested deeper than the stack":
        b"\x01e" + struct.pack("<I", 200_001) + b"\x07\x01" * 100_000
        + b"\x00",
}


@pytest.mark.parametrize("body", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_messages_are_serialization_errors(body):
    with pytest.raises(SerializationError):
        wire.decode(body)


# The point path's request and answer layouts: the wire format may not
# drift unless this table changes with it.
GOLDEN = [
    (("products-0", b"ev/0007", 8192),                     # yokan.get
     "037362710a00000007000000002000000000000070726f64756374732d3065762f"
     "30303037"),
    (("products-0", b"ev/0007", b"\x01\x02value"),         # yokan.put
     "037362620a000000070000000700000070726f64756374732d3065762f30303037"
     "010276616c7565"),
    (("products-0", b"ev/0007"),                           # yokan.exists
     "0273620a0000000700000070726f64756374732d3065762f30303037"),
    (("events-1", b"ev/", b"", 128),                       # yokan.list_keys
     "047362627108000000030000000000000080000000000000006576656e74732d31"
     "65762f"),
    ((wire.OK, [b"ev/1", b"ev/22"]),                       # its answer
     "02716b00000000000000000200000009000000040000000500000065762f316576"
     "2f3232"),
    ((wire.OK, b"value"), "02716200000000000000000500000076616c7565"),
    ((wire.OK, False), "02713f000000000000000000"),
    ((wire.OK, None), "02716e0000000000000000"),
    ((wire.RETRY, 70000), "02717101000000000000007011010000000000"),
    ((wire.ERR, "KeyNotFound", "b'k'"),
     "0371737302000000000000000b000000040000004b65794e6f74466f756e646227"
     "6b27"),
]


@pytest.mark.parametrize("fields,golden", GOLDEN)
def test_point_path_layouts_are_pinned(fields, golden):
    assert wire.encode(fields).hex() == golden
    assert wire.decode(bytes.fromhex(golden)) == fields
