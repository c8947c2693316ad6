"""Binary key encoding helpers.

HEPnOS stores run/subrun/event numbers inside database keys as
*big-endian* 64-bit integers so that the lexicographic ordering of keys
matches the numeric ordering of the containers (paper section II-C1).
"""

from __future__ import annotations

_U64_MAX = (1 << 64) - 1


def encode_u64_be(value: int) -> bytes:
    """Encode an unsigned 64-bit integer big-endian.

    Big-endian keeps ``encode(a) < encode(b)`` iff ``a < b`` under the
    bytewise comparison that the KV backends use.
    """
    if not 0 <= value <= _U64_MAX:
        raise ValueError(f"value {value} out of range for u64")
    return value.to_bytes(8, "big")


def decode_u64_be(data: bytes) -> int:
    if len(data) != 8:
        raise ValueError(f"expected 8 bytes, got {len(data)}")
    return int.from_bytes(data, "big")


def prefix_upper_bound(prefix: bytes) -> bytes | None:
    """Smallest byte string greater than every string with ``prefix``.

    Returns ``None`` when no such bound exists (prefix is empty or all
    0xFF), meaning a scan should run to the end of the keyspace.
    """
    if prefix and prefix[-1] != 0xFF:
        return bytes(prefix[:-1]) + bytes((prefix[-1] + 1,))
    data = bytearray(prefix)
    while data:
        if data[-1] != 0xFF:
            data[-1] += 1
            return bytes(data)
        data.pop()
    return None
