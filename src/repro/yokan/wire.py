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
"""

from __future__ import annotations

import zlib
from typing import NamedTuple, Optional, Tuple

from repro.errors import ConfigError, CorruptionError

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
    positional decoder (:func:`repro.serial.loads`).
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


__all__ = ["checksum", "seal", "unseal", "verify_bulk",
           "TenantEnvelope", "tenant_prefix", "wrap_tenant", "unwrap_tenant",
           "priority_code", "priority_name",
           "PRIORITY_INTERACTIVE", "PRIORITY_BATCH"]
