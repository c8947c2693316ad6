"""Prefetcher: pipelined iteration over containers and their products.

Plain container iteration issues one ``list_keys`` page at a time and
one ``get`` per product.  The Prefetcher fetches key pages ahead of
consumption and gang-loads requested products with one load plan per
page -- one request per product database -- the access pattern the
ParallelEventProcessor's readers rely on (paper section II-D).

With an :class:`~repro.hepnos.AsyncEngine` attached to the datastore
the Prefetcher double-buffers: page N+1's loads are issued while page
N's events are being consumed, so the store's latency hides behind the
analysis compute.  The realized overlap is accumulated in
:attr:`Prefetcher.overlap_seconds` and traced as
``hepnos.prefetch.page`` spans.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Iterator, Optional, Sequence, Tuple

from repro.errors import ProductNotFound
from repro.hepnos import keys as hkeys
from repro.hepnos.containers import Event, SubRun
from repro.hepnos.load_plan import LoadPlan
from repro.hepnos.options import PrefetchOptions, check_columnar
from repro.hepnos.product import product_type_name
from repro.monitor import tracing as _tracing


class Prefetcher:
    """Iterate a subrun's events with products loaded in batches.

    ``products`` lists (type, label) pairs to prefetch for every event;
    access them through the yielded :class:`PrefetchedEvent`.  Tuning
    lives in ``options`` (:class:`~repro.hepnos.PrefetchOptions`).
    """

    def __init__(self, datastore, *,
                 options: Optional[PrefetchOptions] = None,
                 products: Sequence[Tuple[object, str]] = (),
                 columns: Optional[Sequence[str]] = None):
        self.options = options if options is not None else PrefetchOptions()
        self.datastore = datastore
        self.batch_size = self.options.batch_size
        self.products = [
            (product_type_name(ptype), label) for ptype, label in products
        ]
        #: fields to project server-side with ``options.columnar_loads``
        self.columns = list(columns) if columns is not None else None
        check_columnar(self.options, self.products, self.columns)
        #: seconds of product-load latency hidden behind consumption
        #: (double-buffered mode only)
        self.overlap_seconds = 0.0
        #: seconds spent blocked on product loads at consumption time
        self.wait_seconds = 0.0
        #: key pages whose loads were issued ahead of consumption
        self.pages_prefetched = 0

    def events(self, subrun: SubRun) -> Iterator["PrefetchedEvent"]:
        """Events of ``subrun`` in order, with products pre-loaded.

        The in-flight window holds ``options.lookahead`` pages of issued
        loads when an AsyncEngine is attached to the datastore (each
        bounded further by the engine's own in-flight cap) and none
        otherwise: issue, then wait.
        """
        pipelined = self.datastore.async_engine is not None and self.products
        lookahead = self.options.lookahead if pipelined else 0
        window: deque = deque()
        for page in self._key_pages(subrun):
            plan = LoadPlan(
                page, self.products,
                columns=self.columns if self.options.columnar_loads else None,
                whole_events=self.options.packed_loads)
            window.append((page, self.datastore.issue_load(plan)))
            if lookahead:
                self.pages_prefetched += 1
            if len(window) > lookahead:
                yield from self._retire(subrun, *window.popleft())
        while window:
            yield from self._retire(subrun, *window.popleft())

    def _key_pages(self, subrun: SubRun) -> Iterator[list]:
        cursor = b""
        while True:
            page = list(self.datastore.list_child_keys(
                "events", subrun.key, start_after=cursor,
                limit=self.batch_size,
            ))
            if not page:
                return
            cursor = page[-1]
            yield page
            if len(page) < self.batch_size:
                return

    def _retire(self, subrun: SubRun, event_keys: list[bytes],
                pending) -> Iterator["PrefetchedEvent"]:
        """Wait for one issued page and emit its events.

        Projected events expose their columns through
        :meth:`PrefetchedEvent.columns`; events the server could not
        project carry the row-wise objects instead, and ``load`` of
        anything not prefetched falls back to a per-event RPC.
        """
        wait_start = time.monotonic()
        overlap = pending.overlap_seconds(wait_start)
        with _tracing.span("hepnos.prefetch.page", events=len(event_keys),
                           products=len(self.products)) as sp:
            loaded = pending.wait()
            waited = time.monotonic() - wait_start
            sp.set_tag("overlap_seconds", round(overlap, 6))
            sp.set_tag("wait_seconds", round(waited, 6))
        self.overlap_seconds += overlap
        self.wait_seconds += waited
        for i, key in enumerate(event_keys):
            event = Event(self.datastore, subrun, hkeys.child_number(key), key)
            yield PrefetchedEvent(event, loaded.event_products(i),
                                  loaded.event_columns(i))


class PrefetchedEvent:
    """An event plus its prefetched products.

    :meth:`load` serves prefetched (type, label) pairs from memory and
    falls back to the datastore for anything else.
    """

    __slots__ = ("event", "_products", "_columns")

    def __init__(self, event: Event, products: dict,
                 columns: Optional[dict] = None):
        self.event = event
        self._products = products
        self._columns = columns

    @property
    def number(self) -> int:
        return self.event.number

    def triple(self) -> tuple[int, int, int]:
        return self.event.triple()

    def load(self, product_type, label: str = ""):
        spec = (product_type_name(product_type), label)
        if spec in self._products:
            value = self._products[spec]
            if value is None:
                raise ProductNotFound(
                    f"no product label={label!r} type={spec[0]!r} "
                    f"in event {self.event.triple()}"
                )
            return value
        return self.event.load(product_type, label=label)

    def prefetched(self, product_type, label: str = "") -> Optional[object]:
        """The prefetched product or None (no fallback RPC)."""
        return self._products.get((product_type_name(product_type), label))

    def columns(self) -> Optional[dict]:
        """Projected field arrays for this event (columnar prefetch
        only); ``None`` when the event was not projected."""
        return self._columns
