"""A log-structured merge-tree backend: the paper's RocksDB stand-in.

Production-shaped engine:

- writes append to a *segmented* write-ahead log -- the shared record
  log of :mod:`repro.yokan.backends.wal` -- and land in a sorted-map
  *memtable*; acknowledged writes always reach the OS (flush per
  record, fsync with ``wal_sync``), so a simulated process crash loses
  nothing that was acked;
- when the active memtable exceeds ``memtable_bytes`` it is *rotated*
  onto an immutable-memtable list and a **background worker** (the
  Argobots-xstream stand-in) flushes it to an SSTable -- puts never
  stall on disk.  Reads consult active -> immutables -> SSTables;
- SSTables are **block-based** (blocks of ~4 KiB of raw entries) and
  read through an ``mmap``: a block fetch is a zero-copy slice of the
  map, decoded once and kept in a bytes-bounded **block LRU cache**
  shared across all tables of the backend;
- a 10-bits-per-key bloom filter per table skips tables that cannot
  hold a key.  A table is built in one pass: each key's digest is
  appended as its entry lands in a block, the filter is filled from all
  of them in one numpy pass, and blocks reach the file through a write
  buffer of at most 64 KiB;
- deletes write *tombstones*, dropped when a compaction includes the
  oldest table;
- compaction is **size-tiered**: contiguous age-runs of similarly
  sized tables merge into one (never everything at once), on the same
  background worker, with a backlog gauge and a write
  throttle when the backlog grows;
- a page of point lookups (:meth:`LSMBackend.get_each`) reads one
  snapshot of the sources, and each key skips a table whose key range
  misses it before its bloom digest is computed; a page of prefix scans
  (:meth:`LSMBackend.scan_prefixes`) reads one snapshot too: per
  prefix, one bounded bisect into each source's sorted run, and a heap
  merge only where two sources hold keys of that prefix.

Crash-safety contract (the engine is ``durable``: ``open_backend``
never wraps it in a second log, and ``BedrockServer.crash(
lose_state=True)`` + restart recovers through it alone):
a WAL segment is deleted only *after* the SSTable holding its data is
durable (fsynced, renamed, and referenced by the fsynced MANIFEST).
A crash mid-flush or mid-compaction leaves either orphan files (not in
the manifest: removed on recovery) or undeleted segments (replayed
idempotently) -- never a hole.

The backend tracks write/read-amplification counters so benchmarks can
show *why* the in-memory backend wins at scale in Figure 2.
"""

from __future__ import annotations

import bisect
import hashlib
import heapq
import json
import mmap
import os
import struct
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError, CorruptionError, KeyNotFound
from repro.monitor import tracing as _tracing
from repro.utils import SortedMap, prefix_upper_bound
from repro.yokan.backend import Backend, DurabilityStats, register_backend
from repro.yokan.backends.wal import (
    append_record,
    decode_puts,
    encode_put,
    encode_put_multi,
    read_records,
)

_U32 = struct.Struct("<I")
_ENTRY = struct.Struct("<II")  # key length, value length
_SST_MAGIC = b"SSTB0002"
_FOOTER_LEN = struct.Struct("<Q")
_TOMBSTONE_LEN = 0xFFFFFFFF

#: Sentinel stored in the memtable for deleted keys.
_TOMBSTONE = object()

#: Tables smaller than this all land in size tier 0.
_TIER_BASE_BYTES = 64 * 1024
#: Size ratio separating one tier from the next.
_TIER_RATIO = 4
#: Raw entry bytes per SSTable block (a block closes once it passes this).
_BLOCK_BYTES = 4096
#: Bloom filter budget per table.
_BITS_PER_KEY = 10
#: Most bytes a table build holds before writing them to its file.
_WRITE_BUFFER_BYTES = 64 * 1024
#: Soft write throttle: once the flush + compaction backlog passes
#: ``_THROTTLE_BACKLOG``, a write sleeps ``_THROTTLE_SLEEP_S`` per excess
#: task (at most four).
_THROTTLE_BACKLOG = 8
_THROTTLE_SLEEP_S = 0.002


class _FlushAborted(Exception):
    """A background file build observed a crash and abandoned its work."""


class BloomFilter:
    """A fixed-size bloom filter over byte keys.

    Hashing is one ``blake2b`` digest split into two 64-bit halves
    (double hashing ``h1 + i*h2``), so probing *many* tables for one
    key pays the digest once via :meth:`hash_pair` +
    :meth:`contains_hashed`.
    """

    def __init__(self, num_bits: int, num_hashes: int = 4,
                 bits: Optional[bytearray] = None):
        if num_bits <= 0:
            raise ValueError("num_bits must be positive")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._bits = bits if bits is not None else bytearray((num_bits + 7) // 8)

    @classmethod
    def for_capacity(cls, n: int) -> "BloomFilter":
        return cls(max(64, n * _BITS_PER_KEY))

    @staticmethod
    def hash_pair(key: bytes) -> Tuple[int, int]:
        digest = hashlib.blake2b(key, digest_size=16).digest()
        h1 = int.from_bytes(digest[:8], "little")
        h2 = int.from_bytes(digest[8:], "little") | 1
        return h1, h2

    def _positions(self, key: bytes) -> Iterator[int]:
        h1, h2 = self.hash_pair(key)
        for i in range(self.num_hashes):
            yield (h1 + i * h2) % self.num_bits

    def add(self, key: bytes) -> None:
        for pos in self._positions(key):
            self._bits[pos >> 3] |= 1 << (pos & 7)

    def add_digests(self, digests) -> None:
        """Add every key whose 16-byte ``blake2b`` digest is in
        ``digests`` (concatenated, one per key): the bits :meth:`add`
        sets, in one numpy pass.  Both halves are reduced mod
        ``num_bits`` before the probes are formed, so no sum exceeds
        ``num_hashes * num_bits`` and nothing wraps in ``uint64``."""
        halves = np.frombuffer(digests, dtype="<u8").reshape(-1, 2)
        m = np.uint64(self.num_bits)
        h1 = halves[:, 0] % m
        h2 = (halves[:, 1] | np.uint64(1)) % m
        flags = np.unpackbits(np.frombuffer(self._bits, dtype=np.uint8),
                              count=self.num_bits, bitorder="little")
        flags = flags.view(bool)
        for i in range(self.num_hashes):
            flags[(h1 + np.uint64(i) * h2) % m] = True
        self._bits[:] = np.packbits(flags, bitorder="little").tobytes()

    def __contains__(self, key: bytes) -> bool:
        return all(
            self._bits[pos >> 3] & (1 << (pos & 7)) for pos in self._positions(key)
        )

    def contains_hashed(self, h1: int, h2: int) -> bool:
        bits = self._bits
        num_bits = self.num_bits
        for i in range(self.num_hashes):
            pos = (h1 + i * h2) % num_bits
            if not bits[pos >> 3] & (1 << (pos & 7)):
                return False
        return True

    def to_bytes(self) -> bytes:
        return struct.pack("<QI", self.num_bits, self.num_hashes) + bytes(self._bits)

    @classmethod
    def from_bytes(cls, data: bytes) -> "BloomFilter":
        num_bits, num_hashes = struct.unpack_from("<QI", data)
        return cls(num_bits, num_hashes, bytearray(data[12:]))


@dataclass
class LSMStats(DurabilityStats):
    """The segmented log's durability counters (a memtable flush that
    retires its segments is the engine's checkpoint), plus
    amplification, pipeline, and cache counters."""

    #: user payload bytes acknowledged (keys + values)
    logical_bytes: int = 0
    flushes: int = 0
    flushed_bytes: int = 0
    compactions: int = 0
    compacted_bytes: int = 0
    #: memtable rotations (active -> immutable list)
    rotations: int = 0
    flush_seconds: float = 0.0
    compaction_seconds: float = 0.0
    #: lookups served (``get`` + ``exists`` -- the unified read path)
    gets: int = 0
    memtable_hits: int = 0
    immutable_hits: int = 0
    #: SSTable probes that passed the bloom filter (point lookups)
    sstable_reads: int = 0
    #: SSTable probes ruled out by the table's key range or bloom filter
    bloom_skips: int = 0
    #: data blocks decoded from disk (block-cache misses), whoever asked:
    #: lookups, scans, ``list_keys``, compaction inputs
    blocks_read: int = 0
    #: of those, the ones decoded for a counted lookup (``gets``)
    lookup_blocks_read: int = 0
    block_cache_hits: int = 0
    block_cache_misses: int = 0
    block_cache_evictions: int = 0
    #: soft write throttles (backlog over ``_THROTTLE_BACKLOG``)
    throttle_waits: int = 0
    #: hard write stalls (immutable list at ``max_immutables``)
    backpressure_waits: int = 0
    #: background tasks that failed (surfaced via ``drain``)
    worker_errors: int = 0
    #: entries pulled through the scan merge heap (bounded prefix scans
    #: should keep this proportional to the prefix range, not the store)
    scan_entries: int = 0

    @property
    def write_amplification(self) -> float:
        logical = self.wal_bytes or 1
        return (self.wal_bytes + self.flushed_bytes + self.compacted_bytes) / logical

    @property
    def read_amplification(self) -> float:
        """Disk blocks decoded per lookup (cache hits cost nothing)."""
        return self.lookup_blocks_read / (self.gets or 1)

    @property
    def block_cache_hit_rate(self) -> float:
        total = self.block_cache_hits + self.block_cache_misses
        return self.block_cache_hits / total if total else 0.0


class BlockCache:
    """Bytes-bounded LRU over decoded SSTable blocks.

    Shared by every table of one backend; keys are ``(table_uid,
    block_index)`` so recycled file names can never alias.  A
    ``max_bytes`` of 0 disables caching (every read decodes its
    block).
    """

    def __init__(self, max_bytes: int, stats: LSMStats):
        self.max_bytes = max(0, int(max_bytes))
        self.stats = stats
        self._entries: OrderedDict = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    def get(self, key):
        if self.max_bytes == 0:
            self.stats.block_cache_misses += 1
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.block_cache_misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.block_cache_hits += 1
            return entry[0]

    def put(self, key, block, nbytes: int) -> None:
        if self.max_bytes == 0 or nbytes > self.max_bytes:
            return
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            self._entries[key] = (block, nbytes)
            self._bytes += nbytes
            while self._bytes > self.max_bytes:
                _k, (_b, dropped) = self._entries.popitem(last=False)
                self._bytes -= dropped
                self.stats.block_cache_evictions += 1

    def drop_table(self, uid: int) -> None:
        """Evict every block of a compacted-away table."""
        with self._lock:
            stale = [k for k in self._entries if k[0] == uid]
            for k in stale:
                _b, nbytes = self._entries.pop(k)
                self._bytes -= nbytes

    @property
    def used_bytes(self) -> int:
        return self._bytes


def _parse_block(buf) -> Tuple[list, list]:
    """Decode one block's entries into parallel (keys, values) lists.

    ``values`` holds ``None`` for tombstones.  The block is copied out
    of the (possibly mmap-backed) buffer once, and every key and value
    is a slice of that copy, so cached blocks never pin a dead table's
    mapping.
    """
    data = bytes(buf)
    unpack = _ENTRY.unpack_from
    keys: list = []
    values: list = []
    offset = 0
    end = len(data)
    while offset < end:
        klen, vlen = unpack(data, offset)
        offset += 8
        key_end = offset + klen
        keys.append(data[offset:key_end])
        if vlen == _TOMBSTONE_LEN:
            values.append(None)
            offset = key_end
        else:
            offset = key_end + vlen
            values.append(data[key_end:offset])
    return keys, values


class SSTable:
    """One immutable, block-based sorted table on disk.

    The file is mapped read-only once; block reads are zero-copy
    slices of the map, decoded on first touch and served from the
    shared :class:`BlockCache` afterwards.
    """

    _next_uid = 0
    _uid_lock = threading.Lock()

    def __init__(self, path: str, cache: Optional[BlockCache] = None,
                 stats: Optional[LSMStats] = None):
        self.path = path
        self.cache = cache
        self.stats = stats
        with SSTable._uid_lock:
            self.uid = SSTable._next_uid
            SSTable._next_uid += 1
        with open(path, "rb") as f:
            if f.read(len(_SST_MAGIC)) != _SST_MAGIC:
                raise CorruptionError(f"{path}: bad SSTable magic")
            self._mm = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
        view = memoryview(self._mm)
        (footer_size,) = _FOOTER_LEN.unpack(view[-_FOOTER_LEN.size:])
        footer_start = len(view) - _FOOTER_LEN.size - footer_size
        footer = json.loads(bytes(view[footer_start:footer_start + footer_size]))
        self._view = view
        self.num_entries: int = footer["n"]
        self.data_end: int = footer["data_end"]
        # Tables are raw ("none" spells the raw codec too): a named codec
        # or a compressed block is foreign input.
        if footer.get("codec") not in (None, "none") or any(
                flag for *_rest, flag in footer["blocks"]):
            self.close()
            raise CorruptionError(f"{path}: compressed SSTable blocks")
        #: per block: (offset, length)
        self.blocks: list[tuple[int, int]] = [
            (off, stored) for _first, off, stored, _flag in footer["blocks"]
        ]
        self.block_firsts: list[bytes] = [
            bytes.fromhex(b[0]) for b in footer["blocks"]
        ]
        self.bloom = BloomFilter.from_bytes(bytes.fromhex(footer["bloom"]))
        self.min_key = bytes.fromhex(footer["min"]) if footer["min"] else b""
        self.max_key = bytes.fromhex(footer["max"]) if footer["max"] else b""

    @property
    def size_bytes(self) -> int:
        """Data bytes (pre-footer) -- the size-tiering measure."""
        return self.data_end - len(_SST_MAGIC)

    def close(self) -> None:
        view, self._view = self._view, memoryview(b"")
        view.release()
        self._mm.close()

    @staticmethod
    def write(path: str, entries: Iterable[Tuple[bytes, Optional[bytes]]],
              expected_count: int, *,
              should_abort: Optional[Callable[[], bool]] = None,
              on_block: Optional[Callable[[int], None]] = None) -> int:
        """Write sorted ``entries`` (value ``None`` = tombstone) to ``path``.

        Entries are grouped into blocks of ~``_BLOCK_BYTES``, and blocks
        reach the file through a buffer of at most
        ``_WRITE_BUFFER_BYTES`` (or one block, if larger), their offsets
        counted as they are queued.  The bloom filter is filled from
        every key's digest in one pass after the last block.
        ``should_abort`` is polled at every block boundary so a
        simulated crash can abandon a half-written table (the ``.tmp``
        never becomes visible).  ``on_block`` is a test hook invoked
        with the block ordinal after each block is queued.

        Returns the number of data bytes written.
        """
        blocks: list[tuple[str, int, int, int]] = []
        n = 0
        min_key = max_key = None
        tmp = path + ".tmp"
        buf = bytearray()
        first_key: Optional[bytes] = None
        digests = bytearray()
        blake2b = hashlib.blake2b
        try:
            with open(tmp, "wb") as f:
                pending = bytearray(_SST_MAGIC)
                offset = len(_SST_MAGIC)

                def emit_block() -> None:
                    nonlocal buf, first_key, pending, offset
                    if not buf:
                        return
                    if should_abort is not None and should_abort():
                        raise _FlushAborted(path)
                    # The trailing 0 is the format's "not compressed" flag.
                    blocks.append((first_key.hex(), offset, len(buf), 0))
                    offset += len(buf)
                    if len(pending) + len(buf) > _WRITE_BUFFER_BYTES:
                        f.write(pending)
                        pending = buf
                    else:
                        pending += buf
                    if on_block is not None:
                        on_block(len(blocks) - 1)
                    buf = bytearray()
                    first_key = None

                for key, value in entries:
                    if first_key is None:
                        first_key = key
                    digests += blake2b(key, digest_size=16).digest()
                    if min_key is None:
                        min_key = key
                    max_key = key
                    if value is None:
                        buf += _ENTRY.pack(len(key), _TOMBSTONE_LEN)
                        buf += key
                    else:
                        buf += _ENTRY.pack(len(key), len(value))
                        buf += key
                        buf += value
                    n += 1
                    if len(buf) >= _BLOCK_BYTES:
                        emit_block()
                emit_block()
                f.write(pending)
                data_end = offset
                bloom = BloomFilter.for_capacity(max(expected_count, 1))
                bloom.add_digests(digests)
                footer = json.dumps({
                    "n": n,
                    "data_end": data_end,
                    "codec": None,
                    "blocks": blocks,
                    "bloom": bloom.to_bytes().hex(),
                    "min": min_key.hex() if min_key is not None else "",
                    "max": max_key.hex() if max_key is not None else "",
                }).encode()
                f.write(footer)
                f.write(_FOOTER_LEN.pack(len(footer)))
                f.flush()
                os.fsync(f.fileno())
        except _FlushAborted:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        os.replace(tmp, path)
        return data_end - len(_SST_MAGIC)

    # -- block access --------------------------------------------------------

    def _block_entries(self, index: int,
                       lookup: bool = False) -> Tuple[list, list]:
        cache_key = (self.uid, index)
        if self.cache is not None:
            block = self.cache.get(cache_key)
            if block is not None:
                return block
        offset, stored = self.blocks[index]
        block = _parse_block(self._view[offset:offset + stored])
        if self.stats is not None:
            self.stats.blocks_read += 1
            self.stats.lookup_blocks_read += lookup
        if self.cache is not None:
            # 64 + the keys' and values' bytes + 16 per entry: the block
            # holds those bytes and an 8-byte header per entry
            self.cache.put(cache_key, block, 64 + stored + 8 * len(block[0]))
        return block

    def get(self, key: bytes) -> Tuple[bool, Optional[bytes]]:
        """(found, value) -- value ``None`` with found=True is a tombstone."""
        if self.num_entries == 0 or not self.min_key <= key <= self.max_key \
                or key not in self.bloom:
            return False, None
        return self.find(key)

    def find(self, key: bytes, record: bool = False
             ) -> Tuple[bool, Optional[bytes]]:
        """:meth:`get` past the key range and bloom filter: the one block
        that may hold ``key``.  ``record`` counts a block decode towards
        read amplification."""
        index = bisect.bisect_right(self.block_firsts, key) - 1
        if index < 0:
            return False, None
        keys, values = self._block_entries(index, record)
        i = bisect.bisect_left(keys, key)
        if i < len(keys) and keys[i] == key:
            return True, values[i]
        return False, None

    def scan(self, start: bytes = b"", end: Optional[bytes] = None
             ) -> Iterator[Tuple[bytes, Optional[bytes]]]:
        """Ordered iteration including tombstones, from ``start``.

        With ``end``, iteration (and the underlying block decodes) stop
        at the first key ``>= end`` -- prefix-bounded scans never pay
        for the rest of the sorted run.  A bisect finds the first block;
        each block then yields one slice of its entries.
        """
        if self.num_entries == 0 or self.max_key < start:
            return
        if end is not None and self.min_key >= end:
            return
        firsts = self.block_firsts
        first = b = max(0, bisect.bisect_right(firsts, start) - 1)
        while b < len(firsts) and (end is None or firsts[b] < end):
            keys, values = self._block_entries(b)
            lo = bisect.bisect_left(keys, start) if b == first else 0
            hi = len(keys) if end is None else bisect.bisect_left(keys, end,
                                                                  lo)
            yield from zip(keys[lo:hi], values[lo:hi])
            if hi < len(keys):
                return
            b += 1


class _Immutable:
    """A sealed memtable queued for flush, plus its WAL segments."""

    __slots__ = ("memtable", "nbytes", "segments")

    def __init__(self, memtable: SortedMap, nbytes: int, segments: list[str]):
        self.memtable = memtable
        self.nbytes = nbytes
        self.segments = segments


@register_backend("lsm")
class LSMBackend(Backend):
    """The persistent LSM backend (``"lsm"``, standing in for RocksDB).

    All knobs flow from the bedrock database config
    (``{"type": "lsm", "config": {...}}``):

    - ``memtable_bytes`` -- rotation threshold for the active memtable;
    - ``compaction_trigger`` -- tables per size tier before a merge is
      scheduled;
    - ``max_immutables`` -- hard bound on unflushed sealed memtables
      (writers stall at the bound -- backpressure);
    - ``block_cache_bytes`` -- the shared decoded-block LRU budget (0
      disables the cache);
    - ``wal_sync`` -- fsync the WAL on every append (records always
      reach the OS regardless, so acked writes survive process death).

    Those five are the engine's options; tier ratio, block size, bloom
    budget and write throttle are module constants.  Any other key is a
    :class:`ConfigError`, not a silent default.
    """

    durable = True

    def __init__(self, path: str, memtable_bytes: int = 4 * 1024 * 1024,
                 compaction_trigger: int = 4, wal_sync: bool = False,
                 max_immutables: int = 4,
                 block_cache_bytes: int = 8 * 1024 * 1024, **unknown):
        super().__init__()
        if unknown:
            raise ConfigError(f"unknown lsm option(s) {sorted(unknown)}")
        self.path = path
        self.memtable_bytes = memtable_bytes
        self.compaction_trigger = max(2, int(compaction_trigger))
        self.wal_sync = wal_sync
        self.max_immutables = max(1, int(max_immutables))
        self.stats = LSMStats()
        self.block_cache = BlockCache(block_cache_bytes, self.stats)
        os.makedirs(path, exist_ok=True)
        self._manifest_path = os.path.join(path, "MANIFEST.json")
        self._lock = threading.RLock()
        self._work = threading.Condition(self._lock)
        self._memtable = SortedMap()
        self._mem_bytes = 0
        self._immutables: list[_Immutable] = []  # oldest first
        self._sstables: list[SSTable] = []  # oldest first
        self._next_table_id = 0
        self._wal_seq = 0
        self._live_keys: Optional[int] = None
        self._closing = False
        self._worker_busy = False
        self._worker_error: Optional[BaseException] = None
        #: test hooks: name -> callable, invoked at named worker points
        #: ('flush_block', 'flush_installed', 'compact_block',
        #: 'compact_installed'); see tests/test_durability.py.
        self._test_hooks: dict[str, Callable] = {}
        self._recover()
        self._open_new_segment(fresh_ownership=False)
        self._worker = threading.Thread(
            target=self._worker_loop, daemon=True,
            name=f"lsm-worker:{os.path.basename(path)}")
        self._worker.start()
        with self._lock:
            if self._mem_bytes >= self.memtable_bytes:
                self._seal_memtable_locked()

    # -- WAL segments -------------------------------------------------------

    def _segment_name(self, seq: int) -> str:
        return f"wal-{seq:06d}.log"

    @property
    def active_wal_path(self) -> str:
        """Path of the WAL segment currently taking appends."""
        return self._wal_path

    def _open_new_segment(self, fresh_ownership: bool = True) -> None:
        """Open the next WAL segment as the active one.

        With ``fresh_ownership`` the new segment starts a new ownership
        list (post-rotation); at recovery the replayed segments stay
        owned by the rebuilt memtable, so they are deleted only once
        that memtable's SSTable is durable.
        """
        name = self._segment_name(self._wal_seq)
        self._wal_seq += 1
        self._wal_path = os.path.join(self.path, name)
        self._wal = open(self._wal_path, "ab")
        if fresh_ownership:
            self._active_segments = [name]
        else:
            self._active_segments.append(name)

    def _wal_append(self, payload: bytes) -> None:
        append_record(self._wal, payload, self.wal_sync, self.stats)

    # -- recovery ---------------------------------------------------------

    def _recover(self) -> None:
        start = time.perf_counter()
        tables: list[str] = []
        if os.path.exists(self._manifest_path):
            with open(self._manifest_path) as f:
                manifest = json.load(f)
            self._next_table_id = manifest["next_table_id"]
            tables = list(manifest["tables"])
        known = set(tables)
        for name in sorted(os.listdir(self.path)):
            # Orphans: tables a crash never published in the manifest,
            # and abandoned half-written temporaries.
            if name.endswith(".tmp") or (
                    name.startswith("sst-") and name.endswith(".tbl")
                    and name not in known):
                try:
                    os.unlink(os.path.join(self.path, name))
                except OSError:
                    pass
        for name in tables:
            self._sstables.append(SSTable(os.path.join(self.path, name),
                                          cache=self.block_cache,
                                          stats=self.stats))
        segments = sorted(
            name for name in os.listdir(self.path)
            if name.startswith("wal-") and name.endswith(".log"))
        self._active_segments: list[str] = []
        for name in segments:
            payloads, torn = read_records(os.path.join(self.path, name))
            self.stats.torn_tail_bytes += torn
            self.stats.replayed_records += len(payloads)
            for payload in payloads:
                self._apply_record(payload)
            if payloads:
                self._active_segments.append(name)
            else:
                # No whole record: nothing owned, drop it now.
                try:
                    os.unlink(os.path.join(self.path, name))
                except OSError:
                    pass
        if segments:
            last = segments[-1]
            self._wal_seq = int(last[4:-4]) + 1
        self.stats.replay_seconds = time.perf_counter() - start

    def _apply_record(self, payload: bytes) -> None:
        pairs = decode_puts(payload)
        if pairs is None:
            if payload[:1] != b"D":
                raise CorruptionError(
                    f"unknown LSM WAL opcode {payload[:1]!r}")
            (klen,) = _U32.unpack_from(payload, 1)
            pairs = [(payload[5:5 + klen], _TOMBSTONE)]
        self.stats.replayed_keys += len(pairs)
        for key, value in pairs:
            self._memtable_put(key, value)

    # -- memtable ---------------------------------------------------------

    def _memtable_put(self, key: bytes, value) -> None:
        old = self._memtable.get(key)
        if old is not None:
            self._mem_bytes -= len(key) + (0 if old is _TOMBSTONE else len(old))
        self._memtable[key] = value
        self._mem_bytes += len(key) + (0 if value is _TOMBSTONE else len(value))

    def _seal_memtable_locked(self) -> None:
        """Rotate the active memtable onto the immutable list."""
        if len(self._memtable) == 0:
            return
        self._wal.flush()
        self._wal.close()
        self._immutables.append(_Immutable(
            self._memtable, self._mem_bytes, self._active_segments))
        self._memtable = SortedMap()
        self._mem_bytes = 0
        self.stats.rotations += 1
        self._open_new_segment()
        self._work.notify_all()

    # -- background worker ---------------------------------------------------

    def _has_work_locked(self) -> bool:
        return bool(self._immutables) or self._candidate_locked() is not None

    def _worker_loop(self) -> None:
        while True:
            with self._work:
                while not (self._closing or self._crashed
                           or self._has_work_locked()):
                    self._work.wait(0.1)
                if self._crashed or (self._closing
                                     and not self._has_work_locked()):
                    return
                if self._immutables:
                    task, payload = "flush", self._immutables[0]
                else:
                    run = self._candidate_locked()
                    if run is None:
                        continue
                    task, payload = "compact", run
                self._worker_busy = True
            try:
                if task == "flush":
                    self._flush_immutable(payload)
                else:
                    start, end = payload
                    self._compact_run(start, end)
            except _FlushAborted:
                return  # crash observed mid-build; files cleaned up
            except Exception as exc:  # noqa: BLE001 - surfaced via drain()
                with self._lock:
                    self.stats.worker_errors += 1
                    self._worker_error = exc
            finally:
                with self._work:
                    self._worker_busy = False
                    self._work.notify_all()

    def _should_abort(self) -> bool:
        return self._crashed

    def _flush_immutable(self, imm: _Immutable) -> None:
        """Write one sealed memtable out as an SSTable, then retire it.

        Ordering is the crash-safety contract: the table is fsynced and
        renamed, the manifest referencing it is fsynced and renamed,
        and only then are the memtable's WAL segments deleted.
        """
        t0 = time.perf_counter()
        with self._lock:
            name = f"sst-{self._next_table_id:06d}.tbl"
            self._next_table_id += 1
        entries = (
            (k, None if v is _TOMBSTONE else v)
            for k, v in imm.memtable.items_between(b"", None)
        )
        span = (_tracing.span("lsm.flush", parent=_tracing.NO_PARENT,
                              path=os.path.basename(self.path),
                              entries=len(imm.memtable))
                if _tracing.enabled else None)
        try:
            written = SSTable.write(
                os.path.join(self.path, name), entries, len(imm.memtable),
                should_abort=self._should_abort,
                on_block=self._test_hooks.get("flush_block"))
        finally:
            if span is not None:
                span.__exit__(None, None, None)
        with self._lock:
            if self._crashed:
                raise _FlushAborted(name)
            self._sstables.append(SSTable(os.path.join(self.path, name),
                                          cache=self.block_cache,
                                          stats=self.stats))
            try:
                self._immutables.remove(imm)
            except ValueError:
                pass
            self.stats.flushes += 1
            self.stats.checkpoints += 1
            self.stats.flushed_bytes += written
            self.stats.flush_seconds += time.perf_counter() - t0
            self._write_manifest()
            self._work.notify_all()
        hook = self._test_hooks.get("flush_installed")
        if hook is not None:
            hook()
        # The segments' content is now durable in the SSTable.
        for segment in imm.segments:
            try:
                os.unlink(os.path.join(self.path, segment))
            except OSError:
                pass

    def _write_manifest(self) -> None:
        manifest = {
            "next_table_id": self._next_table_id,
            "tables": [os.path.basename(t.path) for t in self._sstables],
        }
        tmp = self._manifest_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(manifest, f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, self._manifest_path)

    # -- compaction ---------------------------------------------------------

    def _size_bucket(self, size: int) -> int:
        bucket = 0
        size = max(size, 1)
        while size > _TIER_BASE_BYTES:
            size //= _TIER_RATIO
            bucket += 1
        return bucket

    def _candidate_locked(self) -> Optional[Tuple[int, int]]:
        """The next compaction run as ``(start, end)`` indices, or None.

        Size-tiered selection over contiguous *age* runs: merging only
        adjacent-in-age tables preserves newest-wins semantics without
        tracking per-key sequence numbers.  Prefers the oldest eligible
        run (which can drop tombstones).  When the table count grows
        far past the trigger without any same-tier run forming, the
        oldest ``compaction_trigger`` tables merge regardless, so the
        count stays bounded for any size distribution.
        """
        tables = self._sstables
        if len(tables) < self.compaction_trigger:
            return None
        buckets = [self._size_bucket(t.size_bytes) for t in tables]
        start = 0
        while start < len(tables):
            end = start + 1
            while end < len(tables) and buckets[end] == buckets[start]:
                end += 1
            if end - start >= self.compaction_trigger:
                return (start, end)
            start = end
        if len(tables) >= self.compaction_trigger * 6:
            return (0, self.compaction_trigger)
        return None

    def _compact_run(self, start: int, end: int) -> None:
        """Merge ``_sstables[start:end]`` into one table.

        Tombstones are dropped only when the run includes the oldest
        table -- otherwise an older table may still hold the deleted
        key, and dropping the tombstone would resurrect it.
        """
        with self._lock:
            if self._crashed:
                return
            run = self._sstables[start:end]
            if len(run) <= 1:
                return
            name = f"sst-{self._next_table_id:06d}.tbl"
            self._next_table_id += 1
        drop_tombstones = start == 0
        t0 = time.perf_counter()
        span = (_tracing.span("lsm.compaction", parent=_tracing.NO_PARENT,
                              path=os.path.basename(self.path),
                              tables=len(run))
                if _tracing.enabled else None)
        merged = self._merge_tables(run, include_tombstones=not drop_tombstones)
        expected = sum(t.num_entries for t in run)
        try:
            written = SSTable.write(
                os.path.join(self.path, name), merged, expected,
                should_abort=self._should_abort,
                on_block=self._test_hooks.get("compact_block"))
        finally:
            if span is not None:
                span.__exit__(None, None, None)
        new_table = SSTable(os.path.join(self.path, name),
                            cache=self.block_cache, stats=self.stats)
        with self._lock:
            if self._crashed:
                raise _FlushAborted(name)
            # The run is still contiguous at the same position: only
            # this worker (or the exclusive manual compact) reorders
            # the list, and flushes strictly append.
            assert self._sstables[start:end] == run
            if new_table.num_entries == 0:
                # Everything merged away (all tombstones): drop the run.
                self._sstables[start:end] = []
            else:
                self._sstables[start:end] = [new_table]
            self.stats.compactions += 1
            self.stats.compacted_bytes += written
            self.stats.compaction_seconds += time.perf_counter() - t0
            self._write_manifest()
            self._work.notify_all()
        hook = self._test_hooks.get("compact_installed")
        if hook is not None:
            hook()
        if new_table.num_entries == 0:
            os.unlink(new_table.path)
        for table in run:
            self.block_cache.drop_table(table.uid)
            try:
                os.unlink(table.path)
            except OSError:
                pass

    def _merge_tables(self, tables: Sequence[SSTable],
                      include_tombstones: bool
                      ) -> Iterator[Tuple[bytes, Optional[bytes]]]:
        """K-way merge over ``tables`` (oldest first), newest wins."""
        heap = []
        for age, table in enumerate(tables):
            it = table.scan()
            first = next(it, None)
            if first is not None:
                heap.append((first[0], -age, first[1], it))
        heapq.heapify(heap)
        current_key = None
        while heap:
            key, neg_age, value, it = heapq.heappop(heap)
            nxt = next(it, None)
            if nxt is not None:
                heapq.heappush(heap, (nxt[0], neg_age, nxt[1], it))
            if key == current_key:
                continue  # an older table's value for the same key
            current_key = key
            if value is None and not include_tombstones:
                continue
            yield key, value

    # -- backlog & synchronous maintenance ------------------------------------

    def compaction_backlog(self) -> int:
        """Unflushed memtables + tables beyond the next quiescent state."""
        with self._lock:
            backlog = len(self._immutables)
            run = self._candidate_locked()
            if run is not None:
                backlog += run[1] - run[0]
            return backlog

    def _apply_write_pressure(self) -> None:
        # Unlocked emptiness probe: while the worker keeps up (no
        # sealed memtable waiting) writes pay nothing here.  The gauge
        # scan and any stall run only once a flush is actually queued.
        if not self._immutables:
            return
        with self._work:
            while (len(self._immutables) >= self.max_immutables
                   and not self._closed):
                self.stats.backpressure_waits += 1
                self._work.wait(0.05)
        backlog = self.compaction_backlog()
        if backlog > _THROTTLE_BACKLOG:
            self.stats.throttle_waits += 1
            time.sleep(_THROTTLE_SLEEP_S * min(4, backlog - _THROTTLE_BACKLOG))

    def _await_worker(self, busy: Callable[[], bool], what: str,
                      timeout: float = 60.0) -> None:
        """Block while ``busy()``; raise the worker's first error, if any."""
        deadline = time.monotonic() + timeout
        with self._work:
            while busy() and self._worker_error is None:
                if time.monotonic() >= deadline:
                    raise TimeoutError(f"lsm {what} timed out")
                self._work.wait(0.05)
            error, self._worker_error = self._worker_error, None
        if error is not None:
            raise error

    def drain(self, timeout: float = 60.0) -> None:
        """Block until the engine is quiescent (tests & benchmarks).

        Raises the first background-worker error, if any occurred.
        """
        self._check_open()
        self._await_worker(
            lambda: self._has_work_locked() or self._worker_busy,
            "drain", timeout)

    def flush_memtable(self) -> None:
        """Rotate the active memtable and wait until it is on disk."""
        self._check_open()
        with self._lock:
            self._seal_memtable_locked()
        self._await_worker(
            lambda: bool(self._immutables) or self._worker_busy,
            "flush_memtable")

    #: the engine's checkpoint: once the memtable is an SSTable its WAL
    #: segments are gone and a restart has nothing of it to replay
    checkpoint = flush_memtable

    def compact(self) -> None:
        """Merge every SSTable into one, dropping tombstones and
        shadowed keys (explicit full maintenance; the background policy
        normally merges tier-sized runs instead)."""
        self._check_open()
        # Wait out any in-flight background task so the full merge sees
        # a stable table list (flushes appending mid-merge are fine --
        # the run splice is position-checked).
        with self._work:
            while self._worker_busy:
                self._work.wait(0.05)
        with self._lock:
            count = len(self._sstables)
        if count <= 1:
            return
        self._compact_run(0, count)

    # -- unified lookup path -------------------------------------------------

    def _lookups(self, keys: Iterable[bytes], record: bool = True
                 ) -> Iterator[Optional[bytes]]:
        """Each key's value, in order (``None``: missing or a tombstone),
        through active -> sealed memtables -> SSTables, newest first.

        The sources are taken once, under the lock, and each key is
        looked up only when it is taken; the active memtable is read
        under the lock.  A table whose key range misses the key is
        passed over before the key's bloom digest is computed, and the
        digest is computed once for all the tables.  ``record=False``
        skips the read-amplification counters -- used by internal
        pre-image probes (live-key accounting, erase checks) so the
        benchmark's read-path stats only count client lookups.
        """
        with self._lock:
            sealed = [imm.memtable for imm in reversed(self._immutables)]
            tables = self._sstables[::-1]
            return self._values(keys, self._memtable, sealed, tables, record)

    def _values(self, keys, active, sealed, tables, record):
        lock, stats = self._lock, self.stats
        for key in keys:
            stats.gets += record
            with lock:
                value = active.get(key)
            if value is not None:
                stats.memtable_hits += record
            else:
                for memtable in sealed:
                    value = memtable.get(key)
                    if value is not None:
                        stats.immutable_hits += record
                        break
                else:
                    value = self._table_value(key, tables, record)
            yield None if value is _TOMBSTONE else value

    def _table_value(self, key: bytes, tables, record: bool):
        stats, hashes = self.stats, None
        for table in tables:
            if table.min_key <= key <= table.max_key:
                hashes = hashes or BloomFilter.hash_pair(key)
                if table.bloom.contains_hashed(*hashes):
                    stats.sstable_reads += record
                    found, value = table.find(key, record)
                    if found:
                        return value
                    continue
            stats.bloom_skips += record
        return None

    def get_each(self, keys: Iterable[bytes]) -> Iterator[Optional[bytes]]:
        """A page of lookups from one snapshot (see :meth:`_lookups`)."""
        self._check_open()
        return self._lookups(keys)

    # -- Backend API --------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        self._check_open()
        key = bytes(key)
        value = bytes(value)
        self._apply_write_pressure()
        with self._lock:
            self._check_open()
            self._wal_append(encode_put(key, value))
            self._account_put_locked(key)
            self._memtable_put(key, value)
            self.stats.logical_bytes += len(key) + len(value)
            if self._mem_bytes >= self.memtable_bytes:
                self._seal_memtable_locked()

    def put_multi(self, pairs: Iterable[Tuple[bytes, bytes]]) -> int:
        """Batched insert: one WAL record, one lock acquisition."""
        self._check_open()
        pairs = [(bytes(k), bytes(v)) for k, v in pairs]
        if not pairs:
            return 0
        self._apply_write_pressure()
        record = encode_put_multi(pairs)
        with self._lock:
            self._check_open()
            self._wal_append(record)
            for key, value in pairs:
                self._account_put_locked(key)
                self._memtable_put(key, value)
                self.stats.logical_bytes += len(key) + len(value)
            if self._mem_bytes >= self.memtable_bytes:
                self._seal_memtable_locked()
        return len(pairs)

    def _account_put_locked(self, key: bytes) -> None:
        """Keep ``_live_keys`` exact using the cheapest pre-image probe.

        The memtable/immutable probe is free; only keys unseen in
        memory pay a (bloom-guarded, unrecorded) SSTable probe -- and
        only while a count is actually being maintained.
        """
        if self._live_keys is None:
            return
        value = self._memtable.get(key)
        if value is None:
            for imm in reversed(self._immutables):
                value = imm.memtable.get(key)
                if value is not None:
                    break
        if value is not None:
            if value is _TOMBSTONE:
                self._live_keys += 1
            return
        if next(self._lookups((key,), record=False)) is None:
            self._live_keys += 1

    def get(self, key: bytes) -> bytes:
        value = next(self.get_each((bytes(key),)))
        if value is None:
            raise KeyNotFound(repr(key))
        return value

    def exists(self, key: bytes) -> bool:
        return next(self.get_each((bytes(key),))) is not None

    def _exists_internal(self, key: bytes) -> bool:
        """Unrecorded presence probe (write-path bookkeeping only)."""
        return next(self._lookups((key,), record=False)) is not None

    def erase(self, key: bytes) -> None:
        self._check_open()
        key = bytes(key)
        self._apply_write_pressure()
        with self._lock:
            self._check_open()
            if not self._exists_internal(key):
                raise KeyNotFound(repr(key))
            self._wal_append(b"D" + _U32.pack(len(key)) + key)
            if self._live_keys is not None:
                self._live_keys -= 1
            self._memtable_put(key, _TOMBSTONE)
            self.stats.logical_bytes += len(key)
            if self._mem_bytes >= self.memtable_bytes:
                self._seal_memtable_locked()

    def __len__(self) -> int:
        with self._lock:
            if self._live_keys is None:
                self._live_keys = sum(1 for _ in self.scan())
            return self._live_keys

    def scan(self, start: bytes = b"", inclusive: bool = True,
             end: Optional[bytes] = None) -> Iterator[Tuple[bytes, bytes]]:
        """Merged ordered iteration from ``start``.

        The source set (active memtable, immutables, tables) is
        snapshotted under the lock, so a flush or compaction landing
        mid-scan never changes what this iteration sees: sealed
        memtables stay readable after their SSTable lands, and
        compacted-away tables stay readable through their mmap until
        the iterator drops them.

        With ``end``, the merge stops at the first key ``>= end`` and
        every source iterator is bounded too: a prefix-bounded scan
        reads only the prefix's slice of each sorted run.
        """
        self._check_open()
        with self._lock:
            sources: list = [table.scan(start, end=end)
                             for table in self._sstables]
            for imm in self._immutables:
                sources.append(imm.memtable.scan(start, inclusive=True))
            sources.append(self._memtable.scan(start, inclusive=True))
        heap: list = []
        for age, it in enumerate(sources):
            entry = next(it, None)
            while entry is not None and not inclusive and entry[0] == start:
                entry = next(it, None)
            if entry is not None and (end is None or entry[0] < end):
                value = entry[1]
                if value is _TOMBSTONE:
                    value = None
                heap.append((entry[0], -age, value, it))
        heapq.heapify(heap)
        current_key = None
        while heap:
            key, neg_age, value, it = heapq.heappop(heap)
            self.stats.scan_entries += 1
            nxt = next(it, None)
            if nxt is not None and (end is None or nxt[0] < end):
                if inclusive or nxt[0] != start:
                    raw = nxt[1]
                    if raw is _TOMBSTONE:
                        raw = None
                    heapq.heappush(heap, (nxt[0], neg_age, raw, it))
            if key == current_key:
                continue
            current_key = key
            if value is None or value is _TOMBSTONE:
                continue  # tombstone shadows older values
            yield key, value

    def scan_prefix(self, prefix: bytes) -> Iterator[Tuple[bytes, bytes]]:
        """Prefix scan with an explicit upper bound on every sorted run."""
        end = prefix_upper_bound(prefix)
        for key, value in self.scan(prefix, end=end):
            if end is None and not key.startswith(prefix):
                return
            yield key, value

    def scan_prefixes(self, prefixes: Iterable[bytes]
                      ) -> Iterator[list[Tuple[bytes, bytes]]]:
        """One group per prefix, in order, from one snapshot of the
        sources.

        The tables and sealed memtables are taken once, under the lock;
        each group then takes one bounded bisect into every table and
        sealed memtable, and reads the active memtable under the lock.
        A prefix held by one source is that source's slice without its
        tombstones; only a prefix two sources hold is heap-merged,
        newest first.  Groups are built as they are asked for.
        """
        self._check_open()
        with self._lock:
            tables = tuple(self._sstables)
            sealed = tuple(imm.memtable for imm in self._immutables)
            active = self._memtable
        return self._groups(prefixes, tables, sealed, active)

    def _groups(self, prefixes, tables, sealed, active
                ) -> Iterator[list[Tuple[bytes, bytes]]]:
        lock, stats = self._lock, self.stats
        for prefix in prefixes:
            end = prefix_upper_bound(prefix)
            # the sources' slices, oldest first, the empty ones left out
            held = [run for run in (list(table.scan(prefix, end))
                                    for table in tables) if run]
            held += [run for run in (memtable.items_between(prefix, end)
                                     for memtable in sealed) if run]
            if active:
                with lock:
                    run = active.items_between(prefix, end)
                if run:
                    held.append(run)
            if len(held) == 1:
                (run,) = held
                stats.scan_entries += len(run)
                yield [(key, value) for key, value in run
                       if value is not None and value is not _TOMBSTONE]
                continue
            stats.scan_entries += sum(map(len, held))
            group: list = []
            last = None
            for key, _neg_age, value in heapq.merge(
                    *([(key, -age, value) for key, value in run]
                      for age, run in enumerate(held))):
                if key == last:
                    continue  # an older source's entry for this key
                last = key
                if value is not None and value is not _TOMBSTONE:
                    group.append((key, value))
            yield group

    def list_keys(self, prefix: bytes = b"", start_after: bytes = b"",
                  limit: int = 0) -> list[bytes]:
        end = prefix_upper_bound(prefix)
        out: list[bytes] = []
        if start_after and start_after >= prefix:
            iterator = self.scan(start_after, inclusive=False, end=end)
        else:
            iterator = self.scan(prefix, inclusive=True, end=end)
        for key, _ in iterator:
            if end is None and not key.startswith(prefix):
                break
            out.append(key)
            if limit and len(out) >= limit:
                break
        return out

    # -- observability -------------------------------------------------------

    def lsm_stats(self) -> dict:
        """Counters + live gauges for ``storage_stats()`` / the CLI."""
        with self._lock:
            tiers: dict[int, int] = {}
            for table in self._sstables:
                bucket = self._size_bucket(table.size_bytes)
                tiers[bucket] = tiers.get(bucket, 0) + 1
            stats = self.stats
            return {
                "memtable_bytes": self._mem_bytes,
                "memtable_entries": len(self._memtable),
                "immutables": len(self._immutables),
                "immutable_bytes": sum(i.nbytes for i in self._immutables),
                "sstables": len(self._sstables),
                "tiers": {str(k): v for k, v in sorted(tiers.items())},
                "table_bytes": sum(t.size_bytes for t in self._sstables),
                "compaction_backlog": self.compaction_backlog(),
                "block_cache_bytes": self.block_cache.used_bytes,
                "block_cache_hit_rate": round(stats.block_cache_hit_rate, 4),
                "write_amplification": round(stats.write_amplification, 3),
                "read_amplification": round(stats.read_amplification, 3),
                "flushes": stats.flushes,
                "compactions": stats.compactions,
                "rotations": stats.rotations,
                "flush_seconds": round(stats.flush_seconds, 4),
                "compaction_seconds": round(stats.compaction_seconds, 4),
                "throttle_waits": stats.throttle_waits,
                "backpressure_waits": stats.backpressure_waits,
                "worker_errors": stats.worker_errors,
            }

    # -- lifecycle ---------------------------------------------------------

    def flush(self) -> None:
        self._check_open()
        with self._lock:
            self._wal.flush()
            os.fsync(self._wal.fileno())

    def close(self) -> None:
        if not self.closed:
            with self._lock:
                self._closing = True
                self._wal.flush()
                self._work.notify_all()
            self._worker.join(timeout=30.0)
            with self._lock:
                self._wal.close()
                for table in self._sstables:
                    table.close()
            super().close()

    def crash(self) -> None:
        """Simulate losing the process: the worker abandons any
        half-written table at the next block boundary; nothing buffered
        is flushed beyond what each append already pushed to the OS."""
        with self._lock:
            self._closed = True
            self._crashed = True
            self._closing = True
            self._work.notify_all()
            try:
                self._wal.close()
            except OSError:
                pass
        # The dying process takes its xstreams with it: wait for the
        # worker to observe the crash so a restarted backend over the
        # same directory never races its file writes.
        self._worker.join(timeout=30.0)
        super().crash()
