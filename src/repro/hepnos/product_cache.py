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
``get_columns``/``put_columns``: each entry holds the projected fields
of one product key as read-only numpy arrays -- slices of one private
copy per scan answer, never views pinning a landing buffer -- so
repeated projections of hot events skip the wire entirely.  A columns
lookup is all-or-nothing across the requested fields.

Metrics (when a registry is attached):

- ``hepnos.product_cache.hits`` / ``.misses`` -- lookup counters
- ``hepnos.product_cache.hit_bytes`` -- bytes served from cache
- ``hepnos.product_cache.insertions`` / ``.evictions`` -- churn
- ``hepnos.product_cache.bytes`` / ``.entries`` -- current size gauges
- ``hepnos.column_cache.*`` -- the same six for projected columns:
  lookups count products, insertions and evictions count columns
  (fields), ``entries`` counts products holding any
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Sequence, Tuple

import numpy as np


def _value_size(column) -> int:
    """Resident size of a cached column charged against the byte budget."""
    if isinstance(column, np.ndarray):
        return column.nbytes
    return 64 * len(column) + 64


class ProductCache:
    """Bounded LRU over product bytes and per-product projected columns."""

    def __init__(self, max_bytes: int, max_entries: int, metrics=None):
        if max_bytes <= 0 or max_entries <= 0:
            raise ValueError("cache bounds must be positive")
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        #: a bytes key holds the product's serialized value; the 1-tuple
        #: ``(product key,)`` holds ``(size, {field: column})``.
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

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def cached_bytes(self) -> int:
        return self._bytes

    @property
    def cached_column_entries(self) -> int:
        return self._col_entries

    def _evict_locked(self) -> tuple:
        """Pop LRU entries until within bounds; returns eviction counts."""
        evicted = col_evicted = 0
        while (len(self._entries) > self.max_entries
               or self._bytes > self.max_bytes):
            key, dropped = self._entries.popitem(last=False)
            if isinstance(key, tuple):
                self._drop_columns_locked(dropped)
                col_evicted += len(dropped[1])
            else:
                self._bytes -= len(dropped)
                evicted += 1
        return evicted, col_evicted

    def _drop_columns_locked(self, entry: tuple) -> None:
        self._bytes -= entry[0]
        self._col_bytes -= entry[0]
        self._col_entries -= 1

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

    # -- per-product projected columns -------------------------------------

    def get_columns(self, pkey: bytes,
                    fields: Sequence[str]) -> Optional[Dict[str, object]]:
        """Every requested column of ``pkey``, or ``None`` on any miss.

        All-or-nothing: a partial hit counts as a miss (the caller
        would go to the wire for the remaining fields anyway, and one
        ``scan_columns`` round trip serves them all).
        """
        key = (pkey,)
        with self._lock:
            entry = self._entries.get(key)
            cached = entry[1] if entry is not None else {}
            try:
                out = {field: cached[field] for field in fields}
            except KeyError:
                if self._col_misses is not None:
                    self._col_misses.inc()
                return None
            self._entries.move_to_end(key)
        if self._col_hits is not None:
            self._col_hits.inc()
            self._col_hit_bytes.inc(
                entry[0] if len(out) == len(cached)
                else sum(_value_size(col) for col in out.values()))
        return out

    def put_columns(self, answers: Sequence[Tuple[Sequence[bytes],
                                                  Sequence[int],
                                                  Dict[str, object]]]) -> None:
        """Insert the projected columns of whole scan answers at once.

        Each answer is ``(product keys, row counts, {field: column})``:
        the column holds the keys' rows back to back.  Every numpy
        column is copied once and marked read-only (never cached as a
        view over a landing buffer; concurrent readers cannot corrupt a
        shared entry) and each product's entry holds its slices of the
        copies.  A product whose columns alone exceed the byte bound is
        skipped; fields already cached for a key are kept beside the
        new ones.
        """
        prepared = []
        for pkeys, counts, columns in answers:
            own = {}
            row_bytes = fixed = 0
            for field, col in columns.items():
                if isinstance(col, np.ndarray):
                    col = np.array(col, copy=True)
                    col.setflags(write=False)
                    row_bytes += col.itemsize
                else:
                    row_bytes += 64
                    fixed += 64
                own[field] = col
            if not own:
                continue
            lo = 0
            for pkey, count in zip(pkeys, counts):
                hi = lo + count
                size = count * row_bytes + fixed
                if size <= self.max_bytes:
                    prepared.append(((pkey,), size, {
                        field: col[lo:hi] for field, col in own.items()}))
                lo = hi
        if not prepared:
            return
        inserted = 0
        with self._lock:
            entries = self._entries
            for key, size, cols in prepared:
                inserted += len(cols)
                old = entries.pop(key, None)
                if old is not None:
                    self._drop_columns_locked(old)
                    for field, col in old[1].items():
                        if field not in cols:
                            cols[field] = col
                            size += _value_size(col)
                entries[key] = (size, cols)
                self._bytes += size
                self._col_bytes += size
            self._col_entries += len(prepared)
            evicted, col_evicted = self._evict_locked()
            self._update_gauges_locked()
        if self._col_insertions is not None:
            self._col_insertions.inc(inserted)
            if evicted:
                self._evictions.inc(evicted)
            if col_evicted:
                self._col_evictions.inc(col_evicted)

    def invalidate(self, pkey: bytes) -> None:
        """Drop ``pkey``'s whole-product entry and its columns.

        Called on overwrite/erase: products are normally immutable, but
        a re-store of the same key must not leave a stale projection.
        """
        with self._lock:
            old = self._entries.pop(pkey, None)
            columns = self._entries.pop((pkey,), None)
            if old is None and columns is None:
                return
            if old is not None:
                self._bytes -= len(old)
            if columns is not None:
                self._drop_columns_locked(columns)
            self._update_gauges_locked()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self._col_bytes = 0
            self._col_entries = 0
            self._update_gauges_locked()


__all__ = ["ProductCache"]
