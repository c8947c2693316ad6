"""Prefetcher: the one event reader (paper section II-D).

Plain container iteration issues one ``list_keys`` page at a time and
one ``get`` per product.  The Prefetcher gathers a page of
``input_batch_size`` event keys -- across subrun boundaries, in the
given subrun order -- issues the page's one load plan -- one request per
product database, few RPCs and large payloads -- and retires the oldest
page once its look-ahead window is full.  Listing is as coarse as
loading: the subruns are grouped by the event database holding their
events, and each database answers one request for up to a page of keys
across the rest of its group; keys listed past a page's end carry into
the next page, so a pass sends about one listing per database per
page, not one per subrun.  The window is 0 pages without an
:class:`~repro.hepnos.AsyncEngine` (issue, then wait) and 1 with one:
page N+1's products are on the wire while page N's events are being
consumed, so the store's latency hides behind the analysis compute.

:meth:`Prefetcher.pages` is that loop over any sequence of subruns;
:meth:`Prefetcher.events` is it flattened for one subrun.  The
ParallelEventProcessor's sequential mode and its readers' loader thread
iterate ``pages``; what they add is the MPI pull protocol on top.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Iterator, Optional, Sequence, Tuple

from repro.errors import ProductNotFound, ReproError
from repro.hepnos import keys as hkeys
from repro.hepnos.column_block import EventBatch
from repro.hepnos.containers import SubRun, _ProductHolder
from repro.hepnos.load_plan import NOT_LOADED, LoadPlan
from repro.hepnos.options import PEPOptions, check_columnar
from repro.hepnos.product import product_type_name
from repro.monitor import tracing as _tracing


class Prefetcher:
    """Iterate events with their products loaded a page at a time.

    ``products`` lists (type, label) pairs to prefetch for every event;
    with ``columns`` the single spec is projected server-side to those
    fields instead.  Of ``options`` the reader uses the page size
    (``input_batch_size``).
    """

    def __init__(self, datastore, *,
                 options: Optional[PEPOptions] = None,
                 products: Sequence[Tuple[object, str]] = (),
                 columns: Optional[Sequence[str]] = None):
        self.options = options if options is not None else PEPOptions()
        self.datastore = datastore
        self.products = [
            (product_type_name(ptype), label) for ptype, label in products
        ]
        #: fields to project server-side; ``None`` loads whole objects
        self.columns = list(columns) if columns is not None else None
        if columns is not None:
            check_columnar(self.products, self.columns)
        #: seconds of product-load latency hidden behind consumption
        self.overlap_seconds = 0.0
        #: seconds spent blocked on product loads at consumption time
        self.wait_seconds = 0.0
        #: key pages whose loads were issued ahead of consumption
        self.pages_prefetched = 0

    def events(self, subrun: SubRun) -> Iterator["PrefetchedEvent"]:
        """Events of ``subrun`` in order, with products pre-loaded."""
        for page in self.pages([subrun]):
            yield from page

    def pages(self, subruns) -> Iterator[object]:
        """One list of :class:`PrefetchedEvent` per page of up to
        ``input_batch_size`` events of ``subruns``, in order -- an
        :class:`~repro.hepnos.column_block.EventBatch` when the page was
        projected to columns.  A page may span several subruns.

        A listing or page load that the client's retry policy gives up
        on raises out of here (stale shard maps and dead primaries never
        reach it: the load executor re-issues those itself).  Whatever
        is still on the wire then -- or when the consumer stops
        iterating -- is cancelled or settled here, so nothing stays in
        the engine's window for ``DataStore.shutdown()`` to trip over.
        """
        #: pages of loads kept on the wire ahead of consumption
        ahead = (1 if self.datastore.async_engine is not None
                 and self.products else 0)
        window: deque = deque()
        try:
            for runs in self._key_pages(subruns):
                keys = [key for _subrun, part in runs for key in part]
                # The one place a lane is named.
                plan = LoadPlan(keys, self.products, columns=self.columns)
                window.append((runs, self.datastore.issue_load(plan)))
                self.pages_prefetched += ahead
                if len(window) > ahead:
                    yield self._retire(window)
            while window:
                yield self._retire(window)
        finally:
            for _runs, pending in window:
                self._discard(pending)

    def _discard(self, pending) -> None:
        """Cancel an abandoned page's queued requests and settle the
        ones already on the wire, so the engine holds none of them."""
        if self.datastore.async_engine is None:
            return
        for future in pending.futures:
            if not future.cancel():
                try:
                    future.wait()
                except ReproError:
                    pass

    def _key_pages(self, subruns):
        """Pages of up to ``input_batch_size`` event keys, in order, each
        a list of ``(subrun, keys)`` runs -- one per subrun it covers.

        The subruns' keys come from one listing cursor per event
        database (:class:`_Listings`), so a page closes when it is full
        or the subruns run out, whichever database each subrun lives in.
        """
        size = self.options.input_batch_size
        subruns = list(subruns)
        listings = _Listings(self.datastore, subruns, size)
        page, room = [], size
        for i, subrun in enumerate(subruns):
            after, more = b"", True
            while more:
                keys, more = listings.take(i, room, after)
                if keys:
                    page.append((subrun, keys))
                    after = keys[-1]
                    room -= len(keys)
                if not room:
                    yield page
                    page, room = [], size
        if page:
            yield page

    def _retire(self, window: deque):
        """Wait for the oldest issued page and return its events.  The
        page leaves the window only once its load is retired: one that
        raises stays for :meth:`pages` to discard."""
        runs, pending = window[0]
        wait_start = time.monotonic()
        overlap = pending.overlap_seconds(wait_start)
        with _tracing.span("hepnos.prefetch.page",
                           events=len(pending.lane.keys), subruns=len(runs),
                           products=len(self.products),
                           overlap_seconds=round(overlap, 6)):
            loaded = pending.wait()
        window.popleft()
        self.overlap_seconds += overlap
        self.wait_seconds += time.monotonic() - wait_start
        events: list = []
        for subrun, keys in runs:
            events += [PrefetchedEvent(subrun, key, loaded, i)
                       for i, key in enumerate(keys, len(events))]
        if loaded.block is None:
            return events
        return EventBatch(events, loaded.block)


class _Cursor:
    """One event database's listing position over its group of subruns:
    ``members[pos]`` is the first not listed to its end, listed up to
    ``after``."""

    __slots__ = ("members", "pos", "after")

    def __init__(self, members: list, after: bytes):
        self.members = members
        self.pos = 0
        self.after = after


class _Listings:
    """Listed-but-unconsumed event keys of a pass's subruns, refilled
    with one request per event database.

    Subruns are grouped by the databases holding their events (the
    (current, previous) pair while a migration is in flight), each group
    in the given order under one :class:`_Cursor`.  When a subrun's keys
    run out, its database gets one ``list_child_keys`` request for up to
    ``size`` more keys covering the rest of its group; a short answer
    means the group is dry.  A database is only asked again once the
    keys it answered are consumed, so at most databases x ``size`` keys
    are carried.  When the shard map has moved since the groups were
    made, the cursors are rebuilt from the last consumed key.
    """

    def __init__(self, datastore, subruns: list, size: int):
        self.datastore = datastore
        self.subruns = subruns
        self.size = size
        #: subrun index -> its listed keys not yet taken
        self._listed: dict = {}
        self._regroup(0, b"")

    def _regroup(self, first: int, after: bytes) -> None:
        """Cursors over ``subruns[first:]`` under the current map; the
        one holding ``subruns[first]`` resumes after ``after``."""
        smap = self._smap = self.datastore.placement
        groups: dict = {}
        for i in range(first, len(self.subruns)):
            key = self.subruns[i].key
            groups.setdefault((smap.database_for("events", key),
                               smap.previous_database_for("events", key)),
                              []).append(i)
        self._cursor_of = {}
        for members in groups.values():
            cursor = _Cursor(members, after if members[0] == first else b"")
            for i in members:
                self._cursor_of[i] = cursor
        #: indices of the subruns whose databases have more to answer
        self._open = set(range(first, len(self.subruns)))
        self._listed.clear()

    def take(self, i: int, room: int, after: bytes):
        """Up to ``room`` keys of subrun ``i`` consumed after ``after``,
        and whether it has more: fewer than ``room`` only when it has
        none."""
        listed = self._listed
        keys = listed.pop(i, [])
        got = len(keys)
        while got < room and i in self._open:
            self._fill(i, keys[-1] if keys else after)
            keys += listed.pop(i, [])
            got = len(keys)
        if got > room:
            listed[i] = keys[room:]
            return keys[:room], True
        return keys, i in self._open

    def _fill(self, i: int, after: bytes) -> None:
        """One request to subrun ``i``'s database for the rest of its
        group; ``after`` is the last key of ``i`` consumed."""
        if self.datastore.placement is not self._smap:
            self._regroup(i, after)
        cursor = self._cursor_of[i]
        members = cursor.members[cursor.pos:]
        parents = [self.subruns[m].key for m in members]
        size, asked = self.size, len(members)
        with _tracing.span("hepnos.prefetch.list", limit=size,
                           subruns=asked) as sp:
            keys = list(self.datastore.list_child_keys(
                "events", parents[0], start_after=cursor.after, limit=size,
                page=size, following=parents[1:]))
            got = len(keys)
            sp.set_tag("events", got)
        runs = [keys] if asked == 1 else hkeys.split_children(
            parents, cursor.after, keys)
        for member, run in zip(members, runs):
            if run:
                self._listed[member] = run
        if got < size:
            done = asked  # the group ran dry
        else:
            done = len(runs) - 1  # all before the last key's subrun
            cursor.after = keys[-1]
        if done:
            self._open.difference_update(members[:done])
            cursor.pos += done


class PrefetchedEvent(_ProductHolder):
    """One event of a retired page: its identity plus its slot in the
    page's answer.

    Handed out by the Prefetcher, the ParallelEventProcessor and
    ``EventBatch.items`` alike.  :meth:`load` serves prefetched
    (type, label) pairs from memory and falls back to the datastore for
    anything else; :meth:`store` writes a product on the event, as
    :class:`~repro.hepnos.Event` does.
    """

    __slots__ = ("subrun", "key", "_loaded", "_index")

    def __init__(self, subrun: SubRun, key: bytes, loaded, index: int):
        self.subrun = subrun
        self.key = key
        self._loaded = loaded
        self._index = index

    @property
    def datastore(self):
        return self.subrun.datastore

    @property
    def number(self) -> int:
        return hkeys.child_number(self.key)

    @property
    def run_number(self) -> int:
        return self.subrun.run.number

    @property
    def subrun_number(self) -> int:
        return self.subrun.number

    def triple(self) -> Tuple[int, int, int]:
        return (self.subrun.run.number, self.subrun.number,
                hkeys.child_number(self.key))

    def load(self, product_type, label: str = ""):
        spec = (product_type_name(product_type), label)
        value = self._loaded.event_product(self._index, spec)
        if value is NOT_LOADED:
            return super().load(product_type, label=label)
        if value is None:
            raise ProductNotFound(
                f"no product label={label!r} type={spec[0]!r} "
                f"in event {self.triple()}"
            )
        return value

    def prefetched(self, product_type, label: str = "") -> Optional[object]:
        """The prefetched product or None (no fallback RPC)."""
        value = self._loaded.event_product(
            self._index, (product_type_name(product_type), label))
        return None if value is NOT_LOADED else value

    def columns(self) -> Optional[dict]:
        """Projected field arrays for this event (columnar prefetch
        only); ``None`` when the event was not projected."""
        return self._loaded.event_columns(self._index)
