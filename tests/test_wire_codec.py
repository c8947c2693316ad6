"""The Yokan message codec (``repro.yokan.wire.encode`` / ``decode``):
every kind round-trips, a field of no kind is refused, damaged bytes
fail one way, and every verb's layouts are pinned."""

import dataclasses
import itertools
import struct
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.errors import SerializationError
from repro.mercury import Bulk, Engine, Fabric, FaultModel
from repro.serial import dumps, register_type
from repro.yokan import MemoryBackend, YokanClient, YokanProvider, wire

ENGINE = Engine(Fabric(), "sm://codec/0")
BULKS = [ENGINE.expose(bytearray(8)) for _ in range(2)]

bytes_like = st.one_of(st.binary(max_size=64),
                       st.binary(max_size=64).map(bytearray),
                       st.binary(max_size=64).map(memoryview))
field = st.one_of(
    bytes_like,
    st.text(max_size=32),
    st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1),
    st.floats(allow_nan=False),
    st.none(),
    st.booleans(),
    st.lists(bytes_like, max_size=8),
    st.sampled_from(BULKS),
)
messages = st.lists(field, max_size=16).map(tuple)


def expected(value):
    """What a field decodes as: every bytes-like value is ``bytes``."""
    if isinstance(value, (bytearray, memoryview)):
        return bytes(value)
    if type(value) is list:
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


#: values no field kind holds, each with a value of the same class that
#: has one (``None``: no such value)
REFUSED = {
    "a dict": ({"checkpoint": True}, None),
    "a list of str": (["adc", "n"], [b"adc", b"n"]),
    "a tuple": ((b"k", b"v"), None),
    "an int past int64": (1 << 63, 1),
}


@pytest.mark.parametrize("value,alike", REFUSED.values(), ids=REFUSED.keys())
def test_a_field_of_no_kind_is_refused_at_encode(value, alike):
    if alike is not None:
        # the encoder compiled for the same classes is tried first
        wire.encode(("events", alike))
    with pytest.raises(SerializationError):
        wire.encode(("events", value))


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


# Every verb's request and answer layouts: the wire format may not drift
# unless this table changes with it.  ``{bulk}`` stands for the id of
# the message's bulk descriptor.
BULK = BULKS[0]
GET_MULTI = (("events", [b"ev/1", b"absent"], BULK, 4096),
             "04736b757106000000020000000a000000{bulk}0010000000000000"
             "6576656e7473040000000600000065762f31616273656e74")
LOAD_PREFIX_PACKED = (
    ("events", [b"ev/1", b"ev/9"], BULK, 4096),
    "04736b7571060000000200000008000000{bulk}00100000000000006576656e7473"
    "040000000400000065762f3165762f39")
SCAN_COLUMNS = (
    ("events", [b"ev/1", b"ev/9"], b"#hits", [b"adc", b"n"], BULK, 4096),
    "06736b626b7571060000000200000008000000050000000200000004000000{bulk}"
    "00100000000000006576656e7473040000000400000065762f3165762f3923686974"
    "7303000000010000006164636e")
PUT_MULTI = (("events", BULK, 21, 0xF7CE9DAB),
             "047375717106000000{bulk}1500000000000000ab9dcef700000000"
             "6576656e7473")
ERASE_MULTI = (("events", [b"ev/1", b"absent"]),
               "02736b06000000020000000a0000006576656e74730400000006000000"
               "65762f31616273656e74")
LENGTH = (("events",), "0173060000006576656e7473")
REPLICATE = (
    ("events", [b"ev/3"], [b"three"], [b"ev/1"]),
    "04736b6b6b06000000010000000400000001000000050000000100000004000000"
    "6576656e74730400000065762f330500000074687265650400000065762f31")
SYNC = ((True,), "013f01")
LIST_DATABASES = ((), "00")


GOLDEN = [
    (("products-0", b"ev/0007", 8192),                     # yokan.get
     "037362710a00000007000000002000000000000070726f64756374732d3065762f"
     "30303037"),
    (("products-0", b"ev/0007", b"\x01\x02value"),         # yokan.put
     "037362620a000000070000000700000070726f64756374732d3065762f30303037"
     "010276616c7565"),
    (("products-0", b"ev/0007"),                           # yokan.exists
     "0273620a0000000700000070726f64756374732d3065762f30303037"),
    (("events-1", [b"ev/"], b"", 128),                     # yokan.list_keys
     "04736b62710800000001000000030000000000000080000000000000006576656e"
     "74732d310300000065762f"),
    ((wire.OK, [b"ev/1", b"ev/22"]),                       # its answer
     "02716b00000000000000000200000009000000040000000500000065762f316576"
     "2f3232"),
    ((wire.OK, b"value"), "02716200000000000000000500000076616c7565"),
    ((wire.OK, False), "02713f000000000000000000"),
    ((wire.OK, None), "02716e0000000000000000"),
    # a landing answer of no item, naming the buffer the items need
    ((wire.OK, 0, 70000, 0, 0),
     "057171717171000000000000000000000000000000007011010000000000000000"
     "00000000000000000000000000"),
    ((wire.ERR, "KeyNotFound", "b'k'"),
     "0371737302000000000000000b000000040000004b65794e6f74466f756e646227"
     "6b27"),
    GET_MULTI,
    # a landing answer: (OK, count, needed, length, crc)
    ((wire.OK, 2, 0, 5, 0x0A24CF40),
     "057171717171000000000000000002000000000000000000000000000000050000"
     "000000000040cf240a00000000"),
    LOAD_PREFIX_PACKED,
    ((wire.OK, 2, 0, 88, 0x96582D90),
     "057171717171000000000000000002000000000000000000000000000000580000"
     "0000000000902d589600000000"),
    SCAN_COLUMNS,
    ((wire.OK, 2, 0, 45, 0x53F56B45),
     "0571717171710000000000000000020000000000000000000000000000002d0000"
     "0000000000456bf55300000000"),
    PUT_MULTI,
    ((wire.OK, 1), "02717100000000000000000100000000000000"),
    ERASE_MULTI,
    ((wire.OK, 1), "02717100000000000000000100000000000000"),
    LENGTH,
    ((wire.OK, 2), "02717100000000000000000200000000000000"),
    REPLICATE,
    ((wire.OK, 1, 1),
     "03717171000000000000000001000000000000000100000000000000"),
    SYNC,
    ((wire.OK, 0, 0),
     "03717171000000000000000000000000000000000000000000000000"),
    LIST_DATABASES,
    ((wire.OK, [b"events"]),
     "02716b00000000000000000100000006000000060000006576656e7473"),
]


def filled(golden: str, bulk_id: int) -> str:
    return golden.format(bulk=bulk_id.to_bytes(8, "little").hex())


@pytest.mark.parametrize("fields,golden", GOLDEN)
def test_point_path_layouts_are_pinned(fields, golden):
    golden = filled(golden, BULK.bulk_id)
    assert wire.encode(fields).hex() == golden
    assert wire.decode(bytes.fromhex(golden)) == fields


# -- what each verb actually sends ---------------------------------------------


@dataclasses.dataclass
class Hit:
    adc: float = 0.0
    n: int = 0


register_type(Hit, "codec.Hit")
STORED = [(b"ev/1", b"one"),
          (b"ev/1#hits", dumps([Hit(0.5, 1), Hit(2.0, 3)]))]

#: verb -> (a call of it, its request's GOLDEN row)
SENT = {
    "yokan.get_multi": (
        lambda client, db: db.get_multi([b"ev/1", b"absent"], 4096),
        GET_MULTI),
    "yokan.load_prefix_packed": (
        lambda client, db: db.load_prefix_packed([b"ev/1", b"ev/9"], 4096),
        LOAD_PREFIX_PACKED),
    "yokan.scan_columns": (
        lambda client, db: db.scan_columns([b"ev/1", b"ev/9"], b"#hits",
                                           ["adc", "n"], 4096),
        SCAN_COLUMNS),
    "yokan.put_multi": (
        lambda client, db: db.put_multi([(b"ev/3", b"three")]), PUT_MULTI),
    "yokan.erase_multi": (
        lambda client, db: db.erase_multi([b"ev/1", b"absent"]),
        ERASE_MULTI),
    "yokan.length": (lambda client, db: len(db), LENGTH),
    "yokan.replicate": (
        lambda client, db: db.replicate([(b"ev/3", b"three")], [b"ev/1"]),
        REPLICATE),
    "yokan.sync": (
        lambda client, db: client.sync("sm://server/0", 1, checkpoint=True),
        SYNC),
    "yokan.list_databases": (
        lambda client, db: client.list_databases("sm://server/0", 1),
        LIST_DATABASES),
}


class Tap(FaultModel):
    """Records every payload the fabric carries, damaging none."""

    def __init__(self):
        self.payloads = []

    def corrupt(self, src, dst, payload):
        self.payloads.append(bytes(payload))


@pytest.mark.parametrize("rpc_name", SENT)
def test_each_verb_sends_its_pinned_layouts(rpc_name, monkeypatch):
    """The request a verb sends and the answer it gets are the GOLDEN
    rows that follow each other in the table."""
    call, request = SENT[rpc_name]
    fabric = Fabric()
    YokanProvider(Engine(fabric, "sm://server/0"), provider_id=1,
                  databases={"events": MemoryBackend()})
    client = YokanClient(Engine(fabric, "sm://client/0"))
    db = client.database_handle("sm://server/0", 1, "events")
    db.put_multi(STORED)
    fabric.stats.reset()
    fabric.fault_model = tap = Tap()
    # the call's first bulk region is its request's descriptor
    monkeypatch.setattr(Bulk, "_ids", itertools.count(1 << 40))
    call(client, db)
    assert fabric.stats.rpc_count == 1
    sent, got = (bytes(wire.unseal(p)).hex()
                 for p in (tap.payloads[0], tap.payloads[-1]))
    row = GOLDEN.index(request)
    assert sent == filled(request[1], 1 << 40)
    assert got == GOLDEN[row + 1][1]
