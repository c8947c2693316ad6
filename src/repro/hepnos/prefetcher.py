"""Prefetcher: the one event reader (paper section II-D).

Plain container iteration issues one ``list_keys`` page at a time and
one ``get`` per product.  The Prefetcher gathers a page of
``input_batch_size`` event keys -- across subrun boundaries: it lists
one subrun after another until the page is full or the subruns run
out -- issues the page's one load plan -- one request per product
database, few RPCs and large payloads -- and retires the oldest page
once its look-ahead window is full.  The window is 0 pages without an
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
from typing import Callable, Iterator, Optional, Sequence, Tuple

from repro.errors import ProductNotFound, ReproError
from repro.faults.retry import RETRYABLE_ERRORS
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
    (``input_batch_size``), the lane (``packed_loads``) and the failure
    policy (``load_retries`` / ``on_load_failure``).
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
        #: page loads re-attempted after a transient failure
        self.load_retries = 0
        #: page loads that exhausted their retry budget
        self.load_failures = 0
        #: subruns abandoned under ``on_load_failure="skip"``
        self.subruns_skipped = 0
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

        Listing and loading each get ``options.load_retries``
        re-attempts on top of the client's own retry policy (stale
        shard maps and dead primaries never reach it: the load executor
        re-issues those itself).  Exhausting them either fails the
        iteration or (``on_load_failure="skip"``) abandons what gave
        up -- the subrun being listed, or every subrun the page
        touches -- and moves on; no event of an abandoned subrun is
        yielded after that.  Whatever is abandoned -- on skip, on
        failure, or because the consumer stopped iterating -- is
        cancelled or settled here, so nothing stays in the engine's
        window for ``DataStore.shutdown()`` to trip over.
        """
        #: pages of loads kept on the wire ahead of consumption
        ahead = (1 if self.datastore.async_engine is not None
                 and self.products else 0)
        window: deque = deque()
        skipped: set[bytes] = set()
        try:
            for runs in self._key_pages(subruns, skipped):
                keys = [key for _subrun, part in runs for key in part]
                # The one place a lane is named.
                plan = LoadPlan(keys, self.products, columns=self.columns,
                                whole_events=self.options.packed_loads)
                window.append((runs, self.datastore.issue_load(plan)))
                self.pages_prefetched += ahead
                if len(window) > ahead:
                    yield from self._retire(window, skipped)
            while window:
                yield from self._retire(window, skipped)
        finally:
            for _runs, pending in window:
                self._discard(pending)

    def _retrying(self, fn: Callable):
        """Run idempotent ``fn`` under the ``load_retries`` budget."""
        attempts = 0
        while True:
            try:
                return fn()
            except RETRYABLE_ERRORS:
                attempts += 1
                self.load_retries += 1
                if attempts > self.options.load_retries:
                    self.load_failures += 1
                    raise

    def _abandon(self, subruns, skipped: set) -> bool:
        """A listing or load of ``subruns`` gave up: under
        ``on_load_failure="skip"`` mark each abandoned (and count it
        once), otherwise tell the caller to raise."""
        if self.options.on_load_failure != "skip":
            return False
        for subrun in subruns:
            if subrun.key not in skipped:
                skipped.add(subrun.key)
                self.subruns_skipped += 1
        return True

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

    def _key_pages(self, subruns, skipped: set):
        """Pages of up to ``input_batch_size`` event keys, in order, each
        a list of ``(subrun, keys)`` runs -- one per subrun it covers.

        Subruns are listed one at a time (a subrun's events colocate),
        each listing asking for the room left in the page, so a page
        closes when it is full or the subruns run out.
        """
        size = self.options.input_batch_size

        def list_keys():
            with _tracing.span("hepnos.prefetch.list", limit=room) as sp:
                keys = list(self.datastore.list_child_keys(
                    "events", subrun.key, start_after=cursor, limit=room))
                sp.set_tag("events", len(keys))
            return keys

        page, room = [], size
        for subrun in subruns:
            cursor = b""
            while subrun.key not in skipped:
                asked = room
                try:
                    keys = self._retrying(list_keys)
                except RETRYABLE_ERRORS:
                    if not self._abandon((subrun,), skipped):
                        raise
                    break
                if keys:
                    page.append((subrun, keys))
                    cursor = keys[-1]
                    room -= len(keys)
                if not room:
                    yield page
                    page, room = [], size
                if len(keys) < asked:
                    break  # the subrun ran dry
        if page:
            yield page

    def _retire(self, window: deque, skipped: set):
        """Wait for the oldest issued page and yield the events of it
        whose subruns are not abandoned, or nothing when none are left.
        The page leaves the window only once its load is retired or
        discarded: one that raises stays for :meth:`pages` to
        discard."""
        runs, pending = window[0]
        live = any(subrun.key not in skipped for subrun, _keys in runs)
        loaded = self._wait(runs, pending, skipped) if live else None
        window.popleft()
        if loaded is None:
            self._discard(pending)
            return
        events: list = []
        start = 0
        for subrun, keys in runs:
            if subrun.key not in skipped:
                events += [PrefetchedEvent(subrun, key, loaded, i)
                           for i, key in enumerate(keys, start)]
            start += len(keys)
        if loaded.block is None:
            yield events
            return
        # A columnar page's consumers read the block's arrays: the
        # surviving events' rows when a subrun was abandoned meanwhile.
        block = loaded.block
        if len(events) < len(block):
            block = block.take([event._index for event in events])
        yield EventBatch(events, block)

    def _wait(self, runs, pending, skipped: set):
        """The retired load of one page, or ``None`` when it gave up and
        every subrun the page touches is skipped."""
        wait_start = time.monotonic()
        overlap = pending.overlap_seconds(wait_start)
        with _tracing.span("hepnos.prefetch.page",
                           events=len(pending.lane.keys), subruns=len(runs),
                           products=len(self.products),
                           overlap_seconds=round(overlap, 6)):
            try:
                # A wait() that gave up re-issues what is still
                # unanswered when called again.
                loaded = self._retrying(pending.wait)
            except RETRYABLE_ERRORS:
                if not self._abandon([subrun for subrun, _ in runs],
                                     skipped):
                    raise
                return None
        self.overlap_seconds += overlap
        self.wait_seconds += time.monotonic() - wait_start
        return loaded


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
