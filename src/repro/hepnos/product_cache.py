"""A client-side LRU cache over serialized product bytes and columns.

HEPnOS products are immutable once written: ``store_product`` never
overwrites, events are write-once, and analysis reads the same products
over and over (the same event is often visited by several processing
stages).  That makes a client-side cache trivially coherent -- there is
nothing to invalidate -- so the only policy question is capacity.

The cache maps full product keys (container key + label + type name,
i.e. exactly the database key) to serialized value bytes, bounded both
by entry count and by total cached bytes, evicting least-recently-used
entries.  It deliberately stores *serialized* bytes, not deserialized
objects: deserialization is cheap on the compiled fast path, objects
are mutable (callers could corrupt a shared cached instance), and bytes
make the memory bound honest.

Columnar loads share the same LRU and the same byte budget through
``get_columns``/``put_columns``: each entry is one ``(product key,
field)`` column -- a read-only numpy array copy (never a view pinning a
landing buffer) -- so repeated projections of hot events skip the wire
entirely.  A columns lookup is all-or-nothing across the requested
fields.

Metrics (when a registry is attached):

- ``hepnos.product_cache.hits`` / ``.misses`` -- lookup counters
- ``hepnos.product_cache.hit_bytes`` -- bytes served from cache
- ``hepnos.product_cache.insertions`` / ``.evictions`` -- churn
- ``hepnos.product_cache.bytes`` / ``.entries`` -- current size gauges
- ``hepnos.column_cache.*`` -- the same six, for column entries
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Sequence

import numpy as np


def _value_size(value) -> int:
    """Resident size charged against the byte budget."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (list, tuple)):
        return 64 * len(value) + 64
    return len(value)


class ProductCache:
    """Bounded LRU over product bytes and per-(key, field) columns."""

    def __init__(self, max_bytes: int, max_entries: int, metrics=None):
        if max_bytes <= 0 or max_entries <= 0:
            raise ValueError("cache bounds must be positive")
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        #: bytes keys are whole-product entries; (bytes, str) tuples are
        #: per-(product key, field) column entries.
        self._entries: OrderedDict = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self._metrics = metrics
        if metrics is not None:
            self._hits = metrics.counter("hepnos.product_cache.hits")
            self._misses = metrics.counter("hepnos.product_cache.misses")
            self._hit_bytes = metrics.counter("hepnos.product_cache.hit_bytes")
            self._insertions = metrics.counter(
                "hepnos.product_cache.insertions")
            self._evictions = metrics.counter("hepnos.product_cache.evictions")
            self._bytes_gauge = metrics.gauge("hepnos.product_cache.bytes")
            self._entries_gauge = metrics.gauge("hepnos.product_cache.entries")
            self._col_hits = metrics.counter("hepnos.column_cache.hits")
            self._col_misses = metrics.counter("hepnos.column_cache.misses")
            self._col_hit_bytes = metrics.counter(
                "hepnos.column_cache.hit_bytes")
            self._col_insertions = metrics.counter(
                "hepnos.column_cache.insertions")
            self._col_evictions = metrics.counter(
                "hepnos.column_cache.evictions")
            self._col_bytes_gauge = metrics.gauge("hepnos.column_cache.bytes")
            self._col_entries_gauge = metrics.gauge(
                "hepnos.column_cache.entries")
        else:
            self._hits = self._misses = self._hit_bytes = None
            self._insertions = self._evictions = None
            self._bytes_gauge = self._entries_gauge = None
            self._col_hits = self._col_misses = self._col_hit_bytes = None
            self._col_insertions = self._col_evictions = None
            self._col_bytes_gauge = self._col_entries_gauge = None
        self._col_bytes = 0
        self._col_entries = 0
        #: pkey -> cached field names, so an overwrite can drop exactly
        #: that product's column entries without scanning the LRU.
        self._col_fields: Dict[bytes, set] = {}

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def cached_bytes(self) -> int:
        return self._bytes

    @property
    def cached_column_bytes(self) -> int:
        return self._col_bytes

    @property
    def cached_column_entries(self) -> int:
        return self._col_entries

    def _evict_locked(self) -> tuple:
        """Pop LRU entries until within bounds; returns eviction counts."""
        evicted = col_evicted = 0
        while (len(self._entries) > self.max_entries
               or self._bytes > self.max_bytes):
            key, dropped = self._entries.popitem(last=False)
            size = _value_size(dropped)
            self._bytes -= size
            if isinstance(key, tuple):
                self._col_bytes -= size
                self._col_entries -= 1
                col_evicted += 1
                fields = self._col_fields.get(key[0])
                if fields is not None:
                    fields.discard(key[1])
                    if not fields:
                        del self._col_fields[key[0]]
            else:
                evicted += 1
        return evicted, col_evicted

    def _update_gauges_locked(self) -> None:
        if self._bytes_gauge is not None:
            self._bytes_gauge.set(self._bytes)
            self._entries_gauge.set(len(self._entries))
            self._col_bytes_gauge.set(self._col_bytes)
            self._col_entries_gauge.set(self._col_entries)

    def get(self, key: bytes) -> Optional[bytes]:
        """Serialized value for ``key``, or ``None``; a hit refreshes LRU."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                if self._misses is not None:
                    self._misses.inc()
                return None
            self._entries.move_to_end(key)
        if self._hits is not None:
            self._hits.inc()
            self._hit_bytes.inc(len(value))
        return value

    def put(self, key: bytes, value: bytes) -> None:
        """Insert ``key``; oversized values (alone > max_bytes) are skipped."""
        size = len(value)
        if size > self.max_bytes:
            return
        value = bytes(value)
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= len(old)
            self._entries[key] = value
            self._bytes += size
            evicted, col_evicted = self._evict_locked()
            self._update_gauges_locked()
        if self._insertions is not None:
            self._insertions.inc()
            if evicted:
                self._evictions.inc(evicted)
            if col_evicted:
                self._col_evictions.inc(col_evicted)

    # -- per-(product key, field) columns ----------------------------------

    def get_columns(self, pkey: bytes,
                    fields: Sequence[str]) -> Optional[Dict[str, object]]:
        """Every requested column of ``pkey``, or ``None`` on any miss.

        All-or-nothing: a partial hit counts as a miss (the caller
        would go to the wire for the remaining fields anyway, and one
        ``scan_columns`` round trip serves them all).
        """
        out: Dict[str, object] = {}
        hit_bytes = 0
        with self._lock:
            for field in fields:
                value = self._entries.get((pkey, field))
                if value is None:
                    if self._col_misses is not None:
                        self._col_misses.inc()
                    return None
                out[field] = value
                hit_bytes += _value_size(value)
            for field in fields:
                self._entries.move_to_end((pkey, field))
        if self._col_hits is not None:
            self._col_hits.inc()
            self._col_hit_bytes.inc(hit_bytes)
        return out

    def put_columns(self, pkey: bytes, columns: Dict[str, object]) -> None:
        """Insert one product's columns under ``(pkey, field)`` entries.

        Numpy columns are copied (never cached as views over a landing
        buffer) and marked read-only so concurrent readers cannot
        corrupt a shared entry; columns whose combined size exceeds the
        byte bound are skipped.
        """
        prepared = {}
        total = 0
        for field, col in columns.items():
            if isinstance(col, np.ndarray):
                col = np.array(col, copy=True)
                col.setflags(write=False)
            else:
                col = list(col)
            prepared[field] = col
            total += _value_size(col)
        if not prepared or total > self.max_bytes:
            return
        with self._lock:
            fields = self._col_fields.setdefault(pkey, set())
            for field, col in prepared.items():
                cache_key = (pkey, field)
                old = self._entries.pop(cache_key, None)
                if old is not None:
                    size = _value_size(old)
                    self._bytes -= size
                    self._col_bytes -= size
                    self._col_entries -= 1
                size = _value_size(col)
                self._entries[cache_key] = col
                self._bytes += size
                self._col_bytes += size
                self._col_entries += 1
                fields.add(field)
            evicted, col_evicted = self._evict_locked()
            self._update_gauges_locked()
        if self._col_insertions is not None:
            self._col_insertions.inc(len(prepared))
            if evicted:
                self._evictions.inc(evicted)
            if col_evicted:
                self._col_evictions.inc(col_evicted)

    def invalidate(self, pkey: bytes) -> None:
        """Drop ``pkey``'s whole-product entry and all its columns.

        Called on overwrite/erase: products are normally immutable, but
        a re-store of the same key must not leave a stale projection.
        """
        with self._lock:
            if pkey not in self._entries and pkey not in self._col_fields:
                return
            old = self._entries.pop(pkey, None)
            if old is not None:
                self._bytes -= _value_size(old)
            for field in self._col_fields.pop(pkey, ()):
                col = self._entries.pop((pkey, field), None)
                if col is not None:
                    size = _value_size(col)
                    self._bytes -= size
                    self._col_bytes -= size
                    self._col_entries -= 1
            self._update_gauges_locked()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self._col_bytes = 0
            self._col_entries = 0
            self._col_fields.clear()
            self._update_gauges_locked()


__all__ = ["ProductCache"]
