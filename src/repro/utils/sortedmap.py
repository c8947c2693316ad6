"""An ordered map over ``bytes`` keys: a dict plus bisected key chunks.

The values live in a ``dict``; the order lives in sorted key *chunks*,
each with an upper bound in ``_maxes``.  A new key is one ``insort``
into the chunk its bound routes it to, and a full chunk splits in two.
A batch (:meth:`SortedMap.update`) is one dict update, then its new
keys merged in order, one chunk at a time: each touched chunk is
replaced whole by its merge -- cut into full chunks when it outgrows
one -- in one list assignment.  Writers are serialized by the caller;
:meth:`SortedMap.scan` runs against that one writer without a lock.
Chunks are split, never merged or removed, so a chunk a scan located
can only move to a higher index, and a chunk a scan holds is either
still in place or replaced by chunks holding its keys and more.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from itertools import filterfalse, repeat
from typing import Iterator, Optional, Tuple

#: keys per chunk before it splits in two
_CHUNK = 1000
#: keys a scan copies at first (doubling per copy up to ``_CHUNK``)
_SCAN_STEP = 8
_ABSENT = object()


def _pieces(keys: list) -> list:
    """``keys`` cut into chunks of at most ``_CHUNK``."""
    if len(keys) <= _CHUNK:
        return [keys]
    return [keys[i:i + _CHUNK] for i in range(0, len(keys), _CHUNK)]


class SortedMap:
    """Ordered mapping from ``bytes`` keys to arbitrary values."""

    def __init__(self) -> None:
        self._values: dict = {}
        self._chunks: list[list[bytes]] = []
        self._maxes: list[bytes] = []  # per chunk, a bound on its keys

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, key: bytes) -> bool:
        return key in self._values

    def __getitem__(self, key: bytes):
        return self._values[key]

    def get(self, key: bytes, default=None):
        return self._values.get(key, default)

    def __setitem__(self, key: bytes, value) -> None:
        values = self._values
        if key not in values:
            if not isinstance(key, bytes):
                raise TypeError(f"keys must be bytes, not {type(key).__name__}")
            chunks, maxes = self._chunks, self._maxes
            i = bisect_left(maxes, key)
            if i < len(maxes):
                chunk = chunks[i]
                insort(chunk, key)
            elif maxes:
                i -= 1
                chunk = chunks[i]
                chunk.append(key)
                maxes[i] = key
            else:
                chunk = [key]
                chunks.append(chunk)
                maxes.append(key)
            if len(chunk) > _CHUNK:
                # The upper half is a chunk of its own before it leaves
                # this one: a racing scan sees its keys twice, never not.
                half = len(chunk) >> 1
                chunks.insert(i + 1, chunk[half:])
                del chunk[half:]
                maxes.insert(i, chunk[-1])
        values[key] = value

    def update(self, pairs) -> dict:
        """Set every ``(key, value)`` of ``pairs`` (a mapping, or pairs in
        order: the last of a repeated key wins, as in a ``__setitem__``
        loop) in one batch; returns the values it replaced, by key.

        The values land in one dict update; the new keys are then merged
        into their chunks in key order.  A batch that starts past the
        last key (an append, what an ingest sends) merges into the last
        chunk only.  A racing :meth:`scan` sees every key present before
        the call exactly once, in order.
        """
        batch = dict(pairs)
        values = self._values
        # In batch order: an ascending batch sorts in one linear pass.
        fresh = list(filterfalse(values.__contains__, batch))
        replaced = {} if len(fresh) == len(batch) else {
            key: values[key] for key in filter(values.__contains__, batch)}
        if not all(map(isinstance, fresh, repeat(bytes))):
            raise TypeError("keys must be bytes")
        values.update(batch)
        if fresh:
            fresh.sort()
            self._merge(fresh)
        return replaced

    def _merge(self, fresh: list) -> None:
        """Put the new sorted keys ``fresh`` into their chunks."""
        chunks, maxes = self._chunks, self._maxes
        if not chunks:
            pieces = _pieces(fresh)
            chunks[:] = pieces
            maxes[:] = [piece[-1] for piece in pieces]
            return
        start, end = 0, len(fresh)
        while start < end:
            i = bisect_left(maxes, fresh[start])
            if i >= len(maxes) - 1:  # the last chunk takes the rest
                i, stop = len(maxes) - 1, end
            else:
                stop = bisect_right(fresh, maxes[i], start)
            chunk = chunks[i]
            merged = chunk + fresh[start:stop]
            if chunk and fresh[start] < chunk[-1]:  # else already in order
                merged.sort()  # two sorted runs: one linear merge
            pieces = _pieces(merged)
            # The pieces replace the chunk before its bound is cut:
            # until then a scan that bisects lands at or before them.
            chunks[i:i + 1] = pieces
            maxes[i:i + 1] = [*(piece[-1] for piece in pieces[:-1]),
                              max(maxes[i], merged[-1])]
            start = stop

    def pop(self, key: bytes, *default):
        try:
            value = self._values.pop(key)
        except KeyError:
            if default:
                return default[0]
            raise
        chunk = self._chunks[bisect_left(self._maxes, key)]
        del chunk[bisect_left(chunk, key)]
        return value

    __delitem__ = pop

    def scan(self, start: bytes = b"", inclusive: bool = True
             ) -> Iterator[Tuple[bytes, object]]:
        """Yield (key, value) pairs in key order from ``start``: strictly
        increasing, with every key present for the whole scan exactly
        once, whatever the writer does between two ``next()`` calls."""
        values = self._values
        if inclusive:
            value = values.get(start, _ABSENT)
            if value is not _ABSENT:
                yield start, value
        last, chunks, step = start, self._chunks, _SCAN_STEP
        i = bisect_right(self._maxes, last)
        if i and i == len(self._maxes):
            i -= 1  # the last chunk may hold keys its bound has not caught
        while True:
            if i >= len(chunks):
                return
            chunk = chunks[i]
            # Copy the keys after ``last`` with the one before them, the
            # witness that the writer shifted nothing in between.
            j = bisect_right(chunk, last)
            batch = chunk[j - 1 if j else 0:j + step]
            if j and (not batch or batch[0] > last):
                continue  # keys left the chunk after the bisect: redo
            n, want = len(batch), step + 1 if j else step
            k = bisect_right(batch, last)
            if k == n:
                if n < want:
                    i += 1  # nothing after ``last`` here
                continue  # else keys entered before the bisect: redo
            for key in batch[k:]:
                value = values.get(key, _ABSENT)
                if value is not _ABSENT:  # else erased since the copy
                    yield key, value
            last = batch[-1]
            if n < want:
                i += 1
            elif step < _CHUNK:
                step <<= 1

    def keys(self) -> Iterator[bytes]:
        return (key for key, _ in self.scan())

    def items_between(self, start: bytes, end: Optional[bytes]) -> list:
        """The ``(key, value)`` pairs with ``start <= key < end`` (``end``
        ``None``: to the last key), in key order, as one list.

        A bisect into the chunks, then slices: no writer may run during
        the call (the caller holds the writers' lock, or the map is no
        longer written).
        """
        chunks, values = self._chunks, self._values
        out: list = []
        i = bisect_left(self._maxes, start)
        first = True
        while i < len(chunks):
            chunk = chunks[i]
            lo = bisect_left(chunk, start) if first else 0
            hi = len(chunk) if end is None else bisect_left(chunk, end, lo)
            out += [(key, values[key]) for key in chunk[lo:hi]]
            if hi < len(chunk):
                break
            first = False
            i += 1
        return out
