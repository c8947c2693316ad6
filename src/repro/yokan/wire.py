"""Checksummed wire envelopes for the Yokan RPC path.

Every Yokan RPC payload and response is *sealed*: a 4-byte big-endian
CRC32 of the body is prepended before the bytes hit the fabric, and
verified (*unsealed*) on receipt.  Bulk buffers are not enveloped --
they are verified out-of-band by carrying their CRC inside the (sealed)
RPC that accompanies the transfer.

A failed check raises :class:`~repro.errors.CorruptionError`, which the
client's :class:`~repro.faults.RetryPolicy` treats as retryable: every
Yokan operation is idempotent, so re-issuing a corrupted request or
re-fetching a corrupted response is always safe.

Requests issued inside a tenant session additionally carry a **tenant
envelope** (:func:`wrap_tenant` / :func:`unwrap_tenant`) *outside* the
sealed payload: a self-checksummed header naming the tenant id, its
priority class, and its quota token.  The request broker reads the
header before unsealing -- admission control must not pay for a full
payload decode on requests it is about to shed -- and anonymous
(system) traffic skips the wrapper entirely, so the unbrokered path is
byte-identical to previous releases.

Inside the seal, every request and answer is one *message*, a tuple of
fields in the flat layout of :func:`encode` / :func:`decode`; a field
of no kind the layout has is refused at encode.  Only products keep the
archive format of :mod:`repro.serial`, and landing-buffer bodies the
framing of :mod:`repro.yokan.packed`: nothing off the network reaches
the archive decoder through this module.
"""

from __future__ import annotations

import struct
import zlib
from typing import NamedTuple, Optional, Tuple

from repro.errors import ConfigError, CorruptionError, SerializationError
from repro.mercury.bulk import Bulk, lookup_region
from repro.yokan import packed

_CRC_SIZE = 4

#: leading magic of a tenant-wrapped request envelope
_TENANT_MAGIC = b"\xd7TN1"

#: priority classes on the wire (smaller = served first)
PRIORITY_INTERACTIVE = 0
PRIORITY_BATCH = 1
_PRIORITY_NAMES = {"interactive": PRIORITY_INTERACTIVE,
                   "batch": PRIORITY_BATCH}
_PRIORITY_CODES = {code: name for name, code in _PRIORITY_NAMES.items()}


def priority_code(name) -> int:
    """Map a priority class name (or code) to its wire code."""
    if isinstance(name, int):
        if name not in _PRIORITY_CODES:
            raise ConfigError(f"unknown priority code {name!r}")
        return name
    try:
        return _PRIORITY_NAMES[name]
    except KeyError:
        raise ConfigError(
            f"unknown priority class {name!r} "
            f"(known: {sorted(_PRIORITY_NAMES)})") from None


def priority_name(code: int) -> str:
    return _PRIORITY_CODES.get(code, "batch")


class TenantEnvelope(NamedTuple):
    """Tenant identity carried outside the sealed RPC payload."""

    tenant: str
    priority: int = PRIORITY_BATCH
    token: str = ""


#: CRC32 of any buffer, as an unsigned 32-bit int.  Zero-copy: the C
#: function consumes the buffer protocol directly, so passing a
#: ``memoryview`` checksums in place.
checksum = zlib.crc32


def seal(body: bytes) -> bytes:
    """Prepend the CRC32 envelope to ``body``."""
    if body.__class__ is not bytes:
        body = bytes(body)
    return checksum(body).to_bytes(_CRC_SIZE, "big") + body


def unseal(envelope) -> memoryview:
    """Verify and strip the CRC32 envelope; raise on any damage.

    Returns a ``memoryview`` over the envelope's body -- no copy.  The
    view keeps the envelope's buffer alive, and feeds straight into the
    message decoder (:func:`decode`).
    """
    view = (envelope if envelope.__class__ is memoryview
            else memoryview(envelope))
    if len(view) < _CRC_SIZE:
        raise CorruptionError(
            f"short wire envelope ({len(view)}B, need >= {_CRC_SIZE}B)"
        )
    expected = int.from_bytes(view[:_CRC_SIZE], "big")
    body = view[_CRC_SIZE:]
    actual = checksum(body)
    if actual != expected:
        raise CorruptionError(
            f"wire checksum mismatch: expected {expected:#010x}, "
            f"got {actual:#010x} over {len(body)}B"
        )
    return body


def verify_bulk(data, expected_crc: int, what: str = "bulk buffer") -> None:
    """Check a bulk region against the CRC carried in its sealed RPC."""
    actual = checksum(data)
    if actual != expected_crc:
        raise CorruptionError(
            f"{what} checksum mismatch: expected {expected_crc:#010x}, "
            f"got {actual:#010x} over {len(data)}B"
        )


def tenant_prefix(tenant: str, priority: int = PRIORITY_BATCH,
                  token: str = "") -> bytes:
    """The constant wire prefix for one tenant identity.

    A session's identity never changes, so clients compute this once
    and tag every request with a single bytes concatenation instead of
    re-encoding (and re-checksumming) the header per RPC.
    """
    header = (bytes([priority & 0xFF])
              + len(token.encode("utf-8")).to_bytes(2, "big")
              + token.encode("utf-8")
              + tenant.encode("utf-8"))
    return (_TENANT_MAGIC
            + len(header).to_bytes(2, "big")
            + checksum(header).to_bytes(_CRC_SIZE, "big")
            + header)


def wrap_tenant(envelope: bytes, tenant: str,
                priority: int = PRIORITY_BATCH, token: str = "") -> bytes:
    """Prefix a sealed envelope with a self-checksummed tenant header.

    Layout: ``magic(4) | header_len(2, big) | header_crc(4, big) |
    header | sealed envelope``.  The header is
    ``priority(1) | token_len(2, big) | token | tenant`` (both strings
    UTF-8).  The inner envelope keeps its own CRC, so header damage and
    payload damage are detected independently.
    """
    return (tenant_prefix(tenant, priority, token)
            + (envelope if isinstance(envelope, bytes) else bytes(envelope)))


#: validated raw header -> parsed envelope; requests of one tenant all
#: carry byte-identical headers, so the server parses each identity
#: once.  Bounded, and only ever holds *valid* headers, so a cache hit
#: is equivalent to re-validating.
_HEADER_CACHE: dict = {}
_HEADER_CACHE_MAX = 1024


def unwrap_tenant(payload) -> Tuple[Optional[TenantEnvelope], memoryview]:
    """Split a request into its tenant header (if any) and the envelope.

    Payloads that do not start with the tenant magic pass through with
    ``None`` -- the legacy/system path.  A present-but-damaged header
    raises :class:`~repro.errors.CorruptionError` (retryable: the
    client re-sends an intact wrapper).
    """
    view = payload if payload.__class__ is memoryview else memoryview(payload)
    if view[:4] != _TENANT_MAGIC:
        return None, view
    if len(view) < 10:
        raise CorruptionError(
            f"short tenant header ({len(view)}B, need >= 10B)")
    hlen = int.from_bytes(view[4:6], "big")
    expected = int.from_bytes(view[6:10], "big")
    if len(view) < 10 + hlen:
        raise CorruptionError(
            f"truncated tenant header ({len(view)}B, header claims {hlen}B)")
    raw = bytes(view[:10 + hlen])
    cached = _HEADER_CACHE.get(raw)
    if cached is not None:
        return cached, view[10 + hlen:]
    header = view[10:10 + hlen]
    actual = checksum(header)
    if actual != expected:
        raise CorruptionError(
            f"tenant header checksum mismatch: expected {expected:#010x}, "
            f"got {actual:#010x} over {hlen}B")
    try:
        priority = header[0]
        token_len = int.from_bytes(header[1:3], "big")
        token = bytes(header[3:3 + token_len]).decode("utf-8")
        tenant = bytes(header[3 + token_len:]).decode("utf-8")
    except (IndexError, UnicodeDecodeError) as exc:
        raise CorruptionError(f"malformed tenant header: {exc}") from None
    meta = TenantEnvelope(tenant, priority, token)
    if len(_HEADER_CACHE) >= _HEADER_CACHE_MAX:
        _HEADER_CACHE.clear()
    _HEADER_CACHE[raw] = meta
    return meta, view[10 + hlen:]


# -- messages: one flat layout per kind signature -----------------------------
#
# ``u8 field count | a kind byte per field | fixed part | variable part``.
# The fixed part is one ``struct`` layout per signature: int64, double and
# bool in place, a bulk descriptor's id, the length of a bytes-like value
# or a string, a key list's count and blob size; ``None`` takes no space.
# The variable part holds what those lengths measure, in field order.
# Nothing else has a kind: a dict, a tuple, a list that is not all
# bytes-like or an int outside int64 is a ``SerializationError`` at
# encode.  Like Mercury's generated ``hg_proc`` routines, each signature
# gets a straight-line encoder and decoder, compiled once; the decoder
# checks every length against the bytes it has before it allocates, and
# refuses a malformed message with a ``SerializationError``.

#: status, the first field of every answer
OK, ERR = 0, 2

#: kind code -> its ``struct`` codes in the fixed part
_FIXED = {"b": "I", "s": "I", "q": "q", "d": "d", "n": "", "?": "?",
          "k": "II", "u": "Q"}
_BYTES_LIKE = (bytes, bytearray, memoryview)
#: exact class -> kind
_KIND_OF = {bytes: "b", bytearray: "b", memoryview: "b", str: "s",
            int: "q", float: "d", type(None): "n", bool: "?", list: "k",
            Bulk: "u"}
_MAX_FIELDS = 16
#: compiled codecs kept before the caches start over (decoding a
#: request compiles its signature, so a client could otherwise grow them)
_CACHE_MAX = 256
#: field classes -> encoder; message head -> ``(encoder, decoder)``
_ENCODERS: dict = {}
_CODECS: dict = {}


def encode(fields: tuple) -> bytes:
    """One message holding ``fields``."""
    encoder = _ENCODERS.get(tuple(map(type, fields)))
    if encoder is not None:
        try:
            return encoder(fields)
        except (TypeError, struct.error):
            pass  # a list that is not all keys, an int outside int64
    return _encode_exactly(fields)


def decode(body) -> tuple:
    """The fields of one message; ``SerializationError`` if malformed."""
    view = body if body.__class__ is memoryview else memoryview(body)
    if not view:
        raise SerializationError("empty message")
    head = view[:view[0] + 1].tobytes()
    codec = _CODECS.get(head)
    if codec is None:
        if len(head) != head[0] + 1 or head[0] > _MAX_FIELDS or not all(
                chr(kind) in _FIXED for kind in head[1:]):
            raise SerializationError(f"malformed message head {head!r}")
        codec = _compile(head)
    return codec[1](view)


def _kind(value) -> str:
    kind = _KIND_OF.get(type(value))
    if kind is None or (kind == "q" and not -1 << 63 <= value < 1 << 63) or (
            kind == "k" and not all(type(key) in _BYTES_LIKE
                                    for key in value)):
        raise SerializationError(
            f"no message field holds {type(value).__name__} {value!r:.60}")
    return kind


def _encode_exactly(fields: tuple) -> bytes:
    head = bytes([len(fields)]) + "".join(map(_kind, fields)).encode("ascii")
    encoder = (_CODECS.get(head) or _compile(head))[0]
    if len(_ENCODERS) >= _CACHE_MAX:
        _ENCODERS.clear()
    _ENCODERS[tuple(map(type, fields))] = encoder
    return encoder(fields)


def _compile(head: bytes) -> tuple:
    """The ``(encoder, decoder)`` of one message head, cached."""
    fixed = "".join(_FIXED[chr(kind)] for kind in head[1:])
    end = len(head) + struct.calcsize("<" + fixed)  # of the part read so far
    src = ["def decode(view):", f"    if len(view) < {end}:",
           "        raise SerializationError(f'short message: {len(view)}B')"]
    enc, packs, tail, slots, reads, values = [], ["HEAD"], [], [], [], []
    for i, kind in enumerate(map(chr, head[1:])):
        v, f = f"v[{i}]", f"f{i}"
        values.append("None" if kind == "n" else f)
        if kind in "qd?u":
            packs.append(f"{v}.bulk_id" if kind == "u" else v)
            slots.append(f)
            reads += [f"{f} = bulk({f})"] if kind == "u" else []
        elif kind == "k":
            src.append(f"    p{i} = {end}")
            enc += [f"j{i} = b''.join({v})", f"t{i} = u32s({v})"]
            packs += [f"len({v})", f"len(j{i})"]
            tail += [f"t{i}", f"j{i}"]
            slots += [f"c{i}", f"a{i}"]
            reads.append(f"{f} = keys(view, p{i}, c{i}, a{i})")
            end = f"p{i} + 4 * c{i} + a{i}"
        elif kind != "n":  # a length, then that many bytes
            src.append(f"    p{i} = {end}")
            enc.append(f"t{i} = " + (f"{v}.encode()" if kind == "s" else v))
            packs.append(f"len(t{i})")
            tail.append(f"t{i}")
            slots.append(f"a{i}")
            data = f"view[p{i}:p{i} + a{i}]"
            reads.append(f"{f} = " + (f"str({data}, 'utf-8')" if kind == "s"
                                      else f"{data}.tobytes()"))
            end = f"p{i} + a{i}"
    if slots:
        src.insert(3, f"    {', '.join(slots)}, = UNPACK(view, {len(head)})")
    body = f"PACK({', '.join(packs)})"
    if tail:
        body = f"b''.join(({body}, {', '.join(tail)}))"
    src += [f"    if {end} != len(view):",
            "        raise SerializationError('message lengths do not add"
            " up to its size')",
            "    try:", *[f"        {line}" for line in reads or ["pass"]],
            "    except UnicodeDecodeError:",
            "        raise SerializationError('a string is not UTF-8')"
            " from None",
            f"    return ({''.join(value + ', ' for value in values)})",
            "def encode(v):", *[f"    {line}" for line in enc],
            f"    return {body}"]
    ns = {"PACK": struct.Struct(f"<{len(head)}s{fixed}").pack,
          "UNPACK": struct.Struct("<" + fixed).unpack_from, "HEAD": head,
          "u32s": packed.lengths, "keys": _keys, "bulk": _bulk,
          "SerializationError": SerializationError}
    exec("\n".join(src), ns)
    if len(_CODECS) >= _CACHE_MAX:
        _CODECS.clear()
    codec = _CODECS[head] = ns["encode"], ns["decode"]
    return codec


def _keys(view: memoryview, at: int, count: int, size: int) -> list:
    """The ``count`` keys of a key list: a length table, then one blob
    of ``size`` bytes (the caller has checked both fit the message)."""
    if count == 1:  # one prefix, one key: no table to read
        if int.from_bytes(view[at:at + 4], "little") != size:
            raise SerializationError(
                "key lengths do not add up to the key blob")
        return [view[at + 4:at + 4 + size].tobytes()]
    lengths = packed.read_lengths(view, at, count)
    if sum(lengths) != size:
        raise SerializationError("key lengths do not add up to the key blob")
    return list(packed.split(view, at + 4 * count, lengths))


def _bulk(bulk_id: int) -> Bulk:
    region = lookup_region(bulk_id)
    if region is None:
        raise SerializationError(f"bulk region {bulk_id} is not registered")
    return region


__all__ = ["checksum", "seal", "unseal", "verify_bulk", "encode", "decode",
           "OK", "ERR",
           "TenantEnvelope", "tenant_prefix", "wrap_tenant", "unwrap_tenant",
           "priority_code", "priority_name",
           "PRIORITY_INTERACTIVE", "PRIORITY_BATCH"]
