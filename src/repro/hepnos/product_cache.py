"""A client-side LRU cache over serialized product bytes and columns.

Analysis reads the same products over and over, and products are
immutable once written -- a re-store or an acknowledged batched write
drops its key (:meth:`ProductCache.invalidate`) -- so the only policy
question is capacity.  Full product keys (exactly the database key) map
to serialized value bytes, bounded by entry count and total bytes,
evicting least-recently-used entries.  Bytes, not objects: objects are
mutable (a caller could corrupt a shared instance), and bytes make the
memory bound honest.  A page of object loads probes all its keys at
once (:meth:`ProductCache.get_many`): one lock and one counter update
per page, not per product.

Columnar loads share the LRU and the byte budget, one *run* per
``scan_columns`` answer, never an entry per product: the answer's
product keys, int64 row offsets and one private, read-only copy of each
projected column -- a numeric array, never a view pinning a landing
buffer -- charged its rows' array bytes.  An answer over the bounds is
cut into runs that fit; a product over ``max_bytes`` alone is not
cached.  An index maps each product key to its newest run and position
(one int: runs own disjoint ranges of positions).  That run alone
answers the key, all or
nothing across the requested fields -- a field it lacks is a miss, and
the refetch is cached as a new run; fields of two answers never merge.
An invalidated key leaves the index, a run with no key left leaves the
LRU, and an evicted run takes its index entries along.  A page lookup
returns one group per stretch of consecutive positions of a run, so a
warm page is a few slices, not a dict per event.  Bounds, ``len()`` and
the ``entries`` gauges count products, not runs.

Metrics (in the given registry, else a private one): counters
``hepnos.product_cache.{hits,misses,hit_bytes,insertions,evictions}``
and gauges ``.bytes`` / ``.entries``; ``hepnos.column_cache.*`` the
same in products (insertions and evictions in products x fields).
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.monitor.metrics import MetricRegistry


def _metrics(registry, kind: str) -> list:
    """The five counters and two gauges of ``hepnos.<kind>``."""
    return [registry.counter(f"hepnos.{kind}.{name}") for name in
            ("hits", "misses", "hit_bytes", "insertions", "evictions")] + [
        registry.gauge(f"hepnos.{kind}.{name}")
        for name in ("bytes", "entries")]


def _own(column: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """A private, read-only copy of rows ``lo:hi``."""
    column = np.array(column[lo:hi], copy=True)
    column.setflags(write=False)
    return column


@dataclass(slots=True)
class _Run:
    """One cached scan answer: product ``p`` (``keys[p]``) owns rows
    ``offsets[p]:offsets[p + 1]`` of every column and position
    ``base + p``; ``live`` index entries point into it."""

    keys: list
    offsets: np.ndarray
    columns: dict
    size: int
    base: int = 0
    live: int = 0


class ProductCache:
    """Bounded LRU over product bytes and cached scan answers (runs)."""

    def __init__(self, max_bytes: int, max_entries: int, metrics=None):
        if max_bytes <= 0 or max_entries <= 0:
            raise ValueError("cache bounds must be positive")
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        #: product key -> serialized value; a run's ``base`` -> the run
        self._entries: OrderedDict = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        if metrics is None:
            metrics = MetricRegistry("product_cache")
        (self._hits, self._misses, self._hit_bytes, self._insertions,
         self._evictions, self._bytes_gauge, self._entries_gauge) = _metrics(
            metrics, "product_cache")
        (self._col_hits, self._col_misses, self._col_hit_bytes,
         self._col_insertions, self._col_evictions, self._col_bytes_gauge,
         self._col_entries_gauge) = _metrics(metrics, "column_cache")
        #: product key -> global position (``run.base + p``) in its newest run
        self._index: Dict[bytes, int] = {}
        #: bases of the runs in the LRU, ascending
        self._bases: List[int] = []
        #: the next run's base; a gap of one keeps runs' ranges apart
        self._next_base = 0
        self._col_bytes = 0

    def __len__(self) -> int:
        """Cached products: byte entries plus products held in a run."""
        return len(self._entries) - len(self._bases) + len(self._index)

    @property
    def cached_bytes(self) -> int:
        return self._bytes

    @property
    def cached_column_entries(self) -> int:
        return len(self._index)

    def _settle_locked(self) -> None:
        """Pop LRU entries until within bounds, then refresh the gauges."""
        entries, index, bases = self._entries, self._index, self._bases
        evicted = col_evicted = 0
        while (len(entries) - len(bases) + len(index) > self.max_entries
               or self._bytes > self.max_bytes):
            key, dropped = entries.popitem(last=False)
            if isinstance(key, int):
                col_evicted += dropped.live * len(dropped.columns)
                for pos, pkey in enumerate(dropped.keys, key):
                    if index.get(pkey) == pos:
                        del index[pkey]
                self._unlist_locked(dropped)
            else:
                self._bytes -= len(dropped)
                evicted += 1
        if evicted:
            self._evictions.inc(evicted)
        if col_evicted:
            self._col_evictions.inc(col_evicted)
        self._bytes_gauge.set(self._bytes)
        self._entries_gauge.set(len(entries) - len(bases) + len(index))
        self._col_bytes_gauge.set(self._col_bytes)
        self._col_entries_gauge.set(len(index))

    def _unlist_locked(self, run: _Run) -> None:
        """Account for ``run`` having left the LRU."""
        del self._bases[bisect_left(self._bases, run.base)]
        self._bytes -= run.size
        self._col_bytes -= run.size

    def _release_locked(self, pos: int) -> None:
        """No key points at ``pos`` any more: its run loses a live key,
        and leaves the LRU with its last one."""
        bases = self._bases
        run = self._entries[bases[bisect_right(bases, pos) - 1]]
        run.live -= 1
        if not run.live:
            del self._entries[run.base]
            self._unlist_locked(run)

    def get(self, key: bytes) -> Optional[bytes]:
        """Serialized value for ``key``, or ``None``; a hit refreshes LRU.
        A point load's probe, kept apart from :meth:`get_many`, whose
        one-key page takes about 1.7 times as long."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self._misses.inc()
                return None
            self._entries.move_to_end(key)
        self._hits.inc()
        self._hit_bytes.inc(len(value))
        return value

    def get_many(self, keys: Sequence[bytes]) -> list:
        """:meth:`get` of each key, aligned with ``keys``: one lock and one
        update per counter, the totals a :meth:`get` per key gives."""
        with self._lock:
            entries = self._entries
            found = list(map(entries.get, keys))
            misses = found.count(None)
            hit_bytes = 0
            if misses < len(found):
                refresh = entries.move_to_end
                for key, value in zip(keys, found):
                    if value is not None:
                        refresh(key)
                        hit_bytes += len(value)
        if misses:
            self._misses.inc(misses)
        if misses < len(found):
            self._hits.inc(len(found) - misses)
            self._hit_bytes.inc(hit_bytes)
        return found

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
            self._settle_locked()
        self._insertions.inc()

    # -- projected columns, one run per scan answer ------------------------

    def lookup_columns(self, pkeys: Sequence[bytes], fields: Sequence[str]
                       ) -> List[Tuple[np.ndarray, np.ndarray, dict]]:
        """The cached columns of a page of product keys: groups
        ``(indices into pkeys, row counts, {field: rows})``, one per
        stretch of consecutive positions of a run, so one slice per
        column.  A key whose newest run lacks a requested field is a
        miss; hits and misses count products, once per call."""
        groups = []
        hits = hit_bytes = 0
        with self._lock:
            at = np.fromiter(map(self._index.get, pkeys, repeat(-1)),
                             dtype=np.int64, count=len(pkeys))
            indices = np.flatnonzero(at >= 0)
            indices = indices[np.argsort(at[indices], kind="stable")]
            positions = at[indices]
            starts = np.flatnonzero(np.diff(positions, prepend=-2) != 1)
            starts = starts.tolist()
            bases, entries = self._bases, self._entries
            for lo, hi in zip(starts, starts[1:] + [len(positions)]):
                first = int(positions[lo])
                run = entries[bases[bisect_right(bases, first) - 1]]
                if not all(field in run.columns for field in fields):
                    continue
                p = first - run.base
                offsets = run.offsets[p:p + hi - lo + 1]
                row_lo, row_hi = int(offsets[0]), int(offsets[-1])
                rows = {field: run.columns[field][row_lo:row_hi]
                        for field in fields}
                groups.append((indices[lo:hi], np.diff(offsets), rows))
                hits += hi - lo
                hit_bytes += sum(col.nbytes for col in rows.values())
                entries.move_to_end(run.base)
        if hits:
            self._col_hits.inc(hits)
            self._col_hit_bytes.inc(hit_bytes)
        if hits < len(pkeys):
            self._col_misses.inc(len(pkeys) - hits)
        return groups

    def _pieces(self, sizes: np.ndarray) -> List[Tuple[int, int]]:
        """Cut an answer's products (charges ``sizes``) into runs that fit
        the bounds, leaving out a product too large alone."""
        if len(sizes) <= self.max_entries and sizes.sum() <= self.max_bytes:
            return [(0, len(sizes))]
        pieces, lo, total = [], 0, 0
        for p, size in enumerate(sizes.tolist()):
            if size > self.max_bytes or total + size > self.max_bytes \
                    or p - lo == self.max_entries:
                if lo < p:
                    pieces.append((lo, p))
                lo, total = (p + 1, 0) if size > self.max_bytes else (p, size)
            else:
                total += size
        if lo < len(sizes):
            pieces.append((lo, len(sizes)))
        return pieces

    def put_columns(self, answers: Sequence[tuple]) -> None:
        """Cache whole scan answers ``(product keys, row counts, {field:
        array})``, each array holding the keys' rows back to back, as
        one run each (more past the bounds) with one read-only copy per
        column, never a view over a landing buffer.  Every key now
        points at its new run -- or, too large to cache, at none."""
        prepared = []
        for pkeys, counts, columns in answers:
            if not columns or not len(pkeys):
                continue
            row_bytes = sum(col.itemsize for col in columns.values())
            sizes = np.asarray(counts, dtype=np.int64) * row_bytes
            offsets = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
            runs = [_Run(list(pkeys[lo:hi]), offsets[lo:hi + 1] - offsets[lo],
                         {field: _own(col, offsets[lo], offsets[hi])
                          for field, col in columns.items()},
                         int(sizes[lo:hi].sum()))
                    for lo, hi in self._pieces(sizes)]
            too_large = np.flatnonzero(sizes > self.max_bytes).tolist()
            prepared.append(([pkeys[p] for p in too_large], runs))
        if not prepared:
            return
        inserted = 0
        with self._lock:
            index, entries = self._index, self._entries
            for too_large, runs in prepared:
                for pkey in too_large:  # its older answer is stale now
                    pos = index.pop(pkey, None)
                    if pos is not None:
                        self._release_locked(pos)
                for run in runs:
                    keys = run.keys
                    run.base = base = self._next_base
                    self._next_base += len(keys) + 1
                    entries[base] = run
                    self._bases.append(base)
                    replaced = set(map(index.get, keys)) - {None}
                    index.update(zip(keys, range(base, base + len(keys))))
                    run.live = len(set(keys))
                    self._bytes += run.size
                    self._col_bytes += run.size
                    inserted += len(keys) * len(run.columns)
                    for pos in replaced:
                        self._release_locked(pos)
            self._settle_locked()
        self._col_insertions.inc(inserted)

    def invalidate(self, *pkeys: bytes) -> None:
        """Drop each key's whole-product entry and columns, in one pass:
        a re-store of a key must not leave a stale value or projection."""
        with self._lock:
            # Two set intersections find the few cached keys: a write
            # batch invalidates every key it stored, cached or not.
            dropped = self._entries.keys() & pkeys
            for pkey in dropped:
                self._bytes -= len(self._entries.pop(pkey))
            released = self._index.keys() & pkeys
            for pkey in released:
                self._release_locked(self._index.pop(pkey))
            if dropped or released:
                self._settle_locked()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._index.clear()
            self._bases.clear()
            self._bytes = self._col_bytes = 0
            self._settle_locked()


__all__ = ["ProductCache"]
