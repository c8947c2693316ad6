"""The record log, and the wrapper that gives a volatile backend one.

**The record log** is the one on-disk format every write-ahead log in
the package uses: the wrapper's ``<db>.wal`` below and the LSM engine's
``wal-%06d.log`` segments.  A record is a ``<II`` header (payload
length, crc32 of the payload) followed by the payload;
:func:`append_record` writes one and pushes it to the OS before the
caller acknowledges anything, :func:`read_records` returns every whole
record and stops cleanly at a torn tail -- a record whose payload is
short or whose CRC mismatches ends the recoverable history, everything
before it is kept.  Payload opcodes:

- ``P``: single put    -- ``P u32(klen) key value``
- ``M``: batched puts  -- ``M u32(n) (u32(klen) u32(vlen) key value)*``
- ``D``: single erase  -- ``D key`` here, ``D u32(klen) key`` in an LSM
  segment (two layouts, both older than the shared log)
- ``E``: batched erase -- ``E u32(n) (u32(klen) key)*`` (wrapper only)

Batch verbs log one record per batch, so the hot ingest path (write
batches flushing via ``put_multi``) pays one frame per flush, not one
per key.

**``DurableBackend``** makes a backend that is not ``durable`` by
itself (``map``) crash-recoverable:

- every mutating verb appends one record *before* the operation is
  acknowledged;
- when the log grows past ``checkpoint_bytes`` the whole inner backend
  is snapshotted to an atomic checkpoint file (tmp + fsync +
  ``os.replace``) and the log is truncated;
- on open, the checkpoint (if any) is loaded and the log replayed on
  top of it.  Replay is idempotent: erases of absent keys are skipped,
  so re-replaying after a crash during checkpointing is safe.
"""

from __future__ import annotations

import os
import struct
import time
import zlib
from typing import Iterable, Iterator, Optional, Sequence, Tuple

from repro.errors import CorruptionError, KeyNotFound
from repro.yokan.backend import Backend, DurabilityStats

_REC_HEADER = struct.Struct("<II")  # payload length, crc32
_U32 = struct.Struct("<I")
_ENTRY = struct.Struct("<II")  # key length, value length
_CKPT_MAGIC = b"CKPT0001"
_CKPT_FOOTER = struct.Struct("<QI")  # entry count, crc32 of entry region

#: Default checkpoint cadence: snapshot once the WAL passes this size.
DEFAULT_CHECKPOINT_BYTES = 4 * 1024 * 1024


def checkpoint_path(wal_path: str) -> str:
    return wal_path + ".ckpt"


# -- the record log ----------------------------------------------------------


def frame(payload: bytes) -> bytes:
    return _REC_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def append_record(log, payload: bytes, sync: bool,
                  stats: DurabilityStats) -> int:
    """Append one framed record to the open log file; returns its size.

    The record reaches the OS before this returns, so a simulated
    process crash (file object abandoned, never closed) still finds
    every acknowledged write on disk; with ``sync`` it is fsynced too.
    """
    record = frame(payload)
    log.write(record)
    log.flush()
    if sync:
        os.fsync(log.fileno())
    stats.wal_records += 1
    stats.wal_bytes += len(record)
    return len(record)


def read_records(path: str) -> Tuple[list[bytes], int]:
    """All whole records in the log at ``path``.

    Returns ``(payloads, torn_bytes)`` where ``torn_bytes`` counts the
    trailing bytes that did not form a complete, CRC-valid record (a
    torn tail from a crash mid-append).  Never raises on a torn tail --
    durability means recovering *up to* the last whole record.
    """
    payloads: list[bytes] = []
    if not os.path.exists(path):
        return payloads, 0
    with open(path, "rb") as f:
        data = f.read()
    offset = 0
    while offset + _REC_HEADER.size <= len(data):
        length, crc = _REC_HEADER.unpack_from(data, offset)
        start = offset + _REC_HEADER.size
        payload = data[start:start + length]
        if len(payload) < length or zlib.crc32(payload) != crc:
            break
        payloads.append(payload)
        offset = start + length
    return payloads, len(data) - offset


def encode_put(key: bytes, value: bytes) -> bytes:
    return b"P" + _U32.pack(len(key)) + key + value


def encode_put_multi(keys: Sequence[bytes], values: Sequence[bytes]) -> bytes:
    """The ``M`` record of ``keys[i]`` -> ``values[i]``: its head, then
    each entry's lengths, key and value, laid in by three slices."""
    parts = [b""] * (3 * len(keys) + 1)
    parts[0] = b"M" + _U32.pack(len(keys))
    parts[1::3] = [_ENTRY.pack(len(k), len(v)) for k, v in zip(keys, values)]
    parts[2::3] = keys
    parts[3::3] = values
    return b"".join(parts)


def decode_puts(payload: bytes) -> Optional[list[Tuple[bytes, bytes]]]:
    """The pairs of a ``P`` or ``M`` record; ``None`` for any other
    opcode (erase records differ per log, their owners parse them)."""
    op = payload[:1]
    if op == b"P":
        (klen,) = _U32.unpack_from(payload, 1)
        return [(payload[5:5 + klen], payload[5 + klen:])]
    if op != b"M":
        return None
    (count,) = _U32.unpack_from(payload, 1)
    pairs = []
    offset = 5
    for _ in range(count):
        klen, vlen = _ENTRY.unpack_from(payload, offset)
        offset += 8
        key = payload[offset:offset + klen]
        offset += klen
        pairs.append((key, payload[offset:offset + vlen]))
        offset += vlen
    return pairs


# -- the wrapper's own records and checkpoint file -----------------------------


def _decode_record(payload: bytes) -> Iterator[Tuple[bytes, Optional[bytes]]]:
    """Yield (key, value-or-None-for-erase) mutations from one record."""
    pairs = decode_puts(payload)
    op = payload[:1]
    if pairs is not None:
        yield from pairs
    elif op == b"D":
        yield payload[1:], None
    elif op == b"E":
        (count,) = _U32.unpack_from(payload, 1)
        offset = 5
        for _ in range(count):
            (klen,) = _U32.unpack_from(payload, offset)
            offset += 4
            yield payload[offset:offset + klen], None
            offset += klen
    else:
        raise CorruptionError(f"unknown WAL opcode {op!r}")


def _write_checkpoint(path: str, pairs: Iterable[Tuple[bytes, bytes]]) -> None:
    """Atomically snapshot ``pairs`` to ``path``."""
    tmp = path + ".tmp"
    count = 0
    crc = 0
    with open(tmp, "wb") as f:
        f.write(_CKPT_MAGIC)
        for key, value in pairs:
            entry = _ENTRY.pack(len(key), len(value)) + key + value
            crc = zlib.crc32(entry, crc)
            f.write(entry)
            count += 1
        f.write(_CKPT_FOOTER.pack(count, crc))
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def _read_checkpoint(path: str) -> Optional[list[Tuple[bytes, bytes]]]:
    """Entries from the checkpoint at ``path`` (None when absent)."""
    if not os.path.exists(path):
        return None
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < len(_CKPT_MAGIC) + _CKPT_FOOTER.size:
        raise CorruptionError(f"{path}: checkpoint truncated")
    if data[:len(_CKPT_MAGIC)] != _CKPT_MAGIC:
        raise CorruptionError(f"{path}: bad checkpoint magic")
    count, crc = _CKPT_FOOTER.unpack_from(data, len(data) - _CKPT_FOOTER.size)
    region = data[len(_CKPT_MAGIC):len(data) - _CKPT_FOOTER.size]
    if zlib.crc32(region) != crc:
        raise CorruptionError(f"{path}: checkpoint CRC mismatch")
    entries: list[Tuple[bytes, bytes]] = []
    offset = 0
    for _ in range(count):
        klen, vlen = _ENTRY.unpack_from(region, offset)
        offset += 8
        key = region[offset:offset + klen]
        offset += klen
        value = region[offset:offset + vlen]
        offset += vlen
        entries.append((key, value))
    return entries


class DurableBackend(Backend):
    """WAL + checkpoint durability over an inner backend that has none.

    Not registered as its own kind: ``open_backend`` wraps a kind that
    is not ``durable`` by itself whenever the database config carries a
    ``wal_path``.
    """

    durable = True

    def __init__(
        self,
        inner: Backend,
        wal_path: str,
        checkpoint_bytes: int = DEFAULT_CHECKPOINT_BYTES,
        wal_sync: bool = False,
    ):
        super().__init__()
        self.inner = inner
        self.wal_path = wal_path
        self.ckpt_path = checkpoint_path(wal_path)
        self.checkpoint_bytes = int(checkpoint_bytes)
        self.wal_sync = wal_sync
        parent = os.path.dirname(wal_path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._recover()
        self._wal = open(wal_path, "ab")
        self._wal_size = self._wal.tell()

    # -- recovery ------------------------------------------------------------

    def _recover(self) -> None:
        start = time.perf_counter()
        entries = _read_checkpoint(self.ckpt_path)
        if entries is not None:
            self.inner.put_multi(entries)
            self.stats.replayed_keys += len(entries)
        payloads, torn = read_records(self.wal_path)
        self.stats.torn_tail_bytes = torn
        if torn:
            # Drop the torn tail so new appends start at a record edge.
            whole = os.path.getsize(self.wal_path) - torn
            with open(self.wal_path, "ab") as f:
                f.truncate(whole)
        for payload in payloads:
            self.stats.replayed_records += 1
            for key, value in _decode_record(payload):
                self.stats.replayed_keys += 1
                if value is None:
                    try:
                        self.inner.erase(key)
                    except KeyNotFound:
                        pass  # idempotent re-replay
                else:
                    self.inner.put(key, value)
        self.stats.replay_seconds = time.perf_counter() - start

    # -- WAL append ----------------------------------------------------------

    def _append(self, payload: bytes) -> None:
        self._wal_size += append_record(self._wal, payload, self.wal_sync,
                                        self.stats)

    def _maybe_checkpoint(self) -> None:
        """Auto-checkpoint once the WAL outgrows the cadence.

        Called *after* the inner backend applied the mutation the last
        record describes: checkpointing from ``_append`` would snapshot
        the pre-mutation state and then truncate away the only record
        of the in-flight write.
        """
        if self._wal_size >= self.checkpoint_bytes:
            self.checkpoint()

    def checkpoint(self) -> None:
        """Snapshot the inner backend and truncate the WAL."""
        self._check_open()
        self.inner.flush()
        _write_checkpoint(self.ckpt_path, self.inner.scan())
        self._wal.close()
        self._wal = open(self.wal_path, "wb")
        self._wal_size = 0
        self.stats.checkpoints += 1

    # -- lifecycle -----------------------------------------------------------

    def flush(self) -> None:
        self._check_open()
        self._wal.flush()
        os.fsync(self._wal.fileno())
        self.inner.flush()

    def close(self) -> None:
        if not self._closed:
            self._wal.flush()
            self._wal.close()
            self.inner.close()
        super().close()

    def crash(self) -> None:
        """Simulate power loss: abandon state without flushing buffers.

        Every record already reached the OS via the per-append flush,
        so closing the file here changes nothing on disk -- the WAL is
        frozen exactly as the "dying" process left it.  (Closing the
        raw fd instead would leak it to Python's file object, whose
        finalizer could later close a reused descriptor number owned by
        a different backend.)
        """
        super().crash()
        try:
            self._wal.close()
        except OSError:
            pass
        self.inner.crash()

    # -- mutating verbs (logged) ---------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        self._check_open()
        self._append(encode_put(bytes(key), bytes(value)))
        self.inner.put(key, value)
        self._maybe_checkpoint()

    def erase(self, key: bytes) -> None:
        self._check_open()
        self.inner.erase(key)  # raises KeyNotFound before logging
        self._append(b"D" + bytes(key))
        self._maybe_checkpoint()

    def put_columns(self, keys: Sequence[bytes],
                    values: Sequence[bytes]) -> int:
        self._check_open()
        if not keys:
            return 0
        self._append(encode_put_multi(keys, values))
        stored = self.inner.put_columns(keys, values)
        self._maybe_checkpoint()
        return stored

    def erase_multi(self, keys: Sequence[bytes]) -> int:
        self._check_open()
        keys = [bytes(k) for k in keys]
        if not keys:
            return 0
        parts = [b"E", _U32.pack(len(keys))]
        for key in keys:
            parts.append(_U32.pack(len(key)))
            parts.append(key)
        self._append(b"".join(parts))
        removed = self.inner.erase_multi(keys)
        self._maybe_checkpoint()
        return removed

    # -- read verbs (delegated) ----------------------------------------------

    def get(self, key: bytes) -> bytes:
        self._check_open()
        return self.inner.get(key)

    def exists(self, key: bytes) -> bool:
        self._check_open()
        return self.inner.exists(key)

    def __len__(self) -> int:
        return len(self.inner)

    def scan(self, start: bytes = b"", inclusive: bool = True
             ) -> Iterator[Tuple[bytes, bytes]]:
        self._check_open()
        return self.inner.scan(start, inclusive=inclusive)

    def get_each(self, keys: Iterable[bytes]) -> Iterator[Optional[bytes]]:
        self._check_open()
        return self.inner.get_each(keys)

    def scan_prefix(self, prefix: bytes) -> Iterator[Tuple[bytes, bytes]]:
        self._check_open()
        return self.inner.scan_prefix(prefix)

    def scan_prefixes(self, prefixes: Iterable[bytes]
                      ) -> Iterator[Iterable[Tuple[bytes, bytes]]]:
        self._check_open()
        return self.inner.scan_prefixes(prefixes)

    def list_keys(
        self,
        prefix: bytes = b"",
        start_after: bytes = b"",
        limit: int = 0,
    ) -> list[bytes]:
        self._check_open()
        return self.inner.list_keys(prefix, start_after, limit)
