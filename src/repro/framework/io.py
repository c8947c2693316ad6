"""Framework I/O: event sources and product sinks.

The physics modules never see which source/sink is configured -- that
is the interface boundary the paper says frameworks must introduce to
benefit from a data service.
"""

from __future__ import annotations

import time
from typing import Iterator, Sequence, Tuple

import numpy as np

from repro.errors import ProductNotFound
from repro.framework.modules import EventContext
from repro.hepnos.options import PEPOptions
from repro.hepnos.parallel_event_processor import ParallelEventProcessor
from repro.hepnos.prefetcher import Prefetcher
from repro.hepnos.product import product_type_name, vector_of
from repro.hepnos.write_batch import WriteBatch
from repro.nova.files import iter_file_events
from repro.nova.generator import table_to_slices


class FileSource:
    """Sequential scan over CAF-like files (the grid paradigm).

    Each file event yields its ``rec.slc`` rows as ``SliceData``
    objects under the standard product spec (``vector<nova.SliceData>``,
    label ``""`` by default).
    """

    def __init__(self, paths: Sequence[str], label: str = ""):
        self.paths = list(paths)
        self.label = label

    def events(self) -> Iterator[EventContext]:
        from repro.nova.datamodel import SliceData

        type_name = product_type_name(vector_of(SliceData))
        for path in self.paths:
            for triple, rows in iter_file_events(path):
                slices = table_to_slices(rows)

                def loader(tname, label, _slices=slices):
                    if tname == type_name and label == self.label:
                        return _slices
                    return None

                yield EventContext(triple, loader=loader)


class HEPnOSSource:
    """Prefetched iteration over a HEPnOS dataset.

    ``products`` lists (type, label) pairs to gang-load; with ``comm``
    the iteration is driven by the ParallelEventProcessor (collective
    over the communicator), otherwise it is sequential.
    """

    def __init__(self, datastore, dataset_path: str,
                 products: Sequence[Tuple[object, str]] = (),
                 comm=None, input_batch_size: int = 1024,
                 dispatch_batch_size: int = 64):
        self.datastore = datastore
        self.dataset_path = dataset_path
        self.products = list(products)
        self.comm = comm
        self.input_batch_size = input_batch_size
        self.dispatch_batch_size = dispatch_batch_size

    def _context_for(self, event) -> EventContext:
        def loader(tname, label):
            try:
                return event.load(tname, label=label)
            except ProductNotFound:
                return None

        return EventContext(event.triple(), loader=loader)

    def _pep(self, comm=None, columns=None) -> ParallelEventProcessor:
        return ParallelEventProcessor(
            self.datastore, comm=comm,
            options=PEPOptions(
                input_batch_size=self.input_batch_size,
                dispatch_batch_size=self.dispatch_batch_size,
                columnar_loads=columns is not None,
            ),
            products=self.products, columns=columns,
        )

    def events(self) -> Iterator[EventContext]:
        """Sequential iteration (ignores ``comm``): pages of
        ``input_batch_size`` events across subruns, as the PEP reads."""
        reader = Prefetcher(
            self.datastore,
            options=PEPOptions(input_batch_size=self.input_batch_size),
            products=self.products,
        )
        subruns = [subrun for run in self.datastore[self.dataset_path]
                   for subrun in run]
        for page in reader.pages(subruns):
            for event in page:
                yield self._context_for(event)

    def process_parallel(self, handle) -> object:
        """Collective mode: invoke ``handle(EventContext)`` on each
        event via the PEP; returns this rank's PEPStatistics."""
        return self._pep(self.comm).process(
            self.datastore[self.dataset_path],
            lambda event: handle(self._context_for(event)))

    # -- columnar fast path -------------------------------------------------

    def supports_columnar(self, cut_filter) -> bool:
        """Whether this source can vectorize ``cut_filter``: its cut
        declares its columns and its product spec is the source's single
        prefetched spec (the projection covers exactly that product)."""
        if cut_filter.columns is None or len(self.products) != 1:
            return False
        ptype, label = self.products[0]
        return (product_type_name(ptype)
                == product_type_name(cut_filter.product_type)
                and label == cut_filter.product_label)

    def process_batches(self, cut_filter, handle, observe=None) -> object:
        """Vectorized prefilter: evaluate ``cut_filter`` over projected
        columns, then invoke ``handle(EventContext)`` on survivors only.

        Batch semantics match the per-event filter exactly: an event
        survives iff any of its records passes the cut; events the
        server could not project are evaluated object-by-object from
        the shipped row-wise values; events without the product fail.
        ``observe(total, passed, seconds)`` reports each batch's
        prefilter accounting.  Collective over ``comm`` when set.
        """
        cut = cut_filter.cut

        def handle_batch(batch):
            t0 = time.monotonic()
            block = batch.block
            if block.rows:
                ev_pass = block.event_any(cut.mask(block.table))
            else:
                ev_pass = np.zeros(len(block), dtype=bool)
            raw_pass = {
                i: any(cut(record) for record in records)
                for i, records in block.raw.items()
            }
            survivors = [
                i for i in range(len(batch))
                if bool(ev_pass[i]) or raw_pass.get(i, False)
            ]
            seconds = time.monotonic() - t0
            if observe is not None:
                observe(len(batch), len(survivors), seconds)
            for i in survivors:
                handle(self._context_for(batch.items[i]))

        return self._pep(self.comm, sorted(cut.columns)).process_batches(
            self.datastore[self.dataset_path], handle_batch)


class HEPnOSSink:
    """Persists produced products next to their event (batched)."""

    def __init__(self, datastore, dataset_path: str):
        self.datastore = datastore
        self.dataset = datastore[dataset_path]
        self.batch = WriteBatch(datastore, flush_threshold=1024)
        self.products_written = 0

    def write(self, event: EventContext) -> None:
        handle = (self.dataset.run(event.run)
                  .subrun(event.subrun)
                  .event(event.event))
        for (tname, label), obj in event.produced.items():
            handle.store(obj, label=label, type_name=tname, batch=self.batch)
            self.products_written += 1

    def close(self) -> None:
        self.batch.close()


class MemorySink:
    """Collects produced products in memory (tests and small jobs)."""

    def __init__(self):
        self.records: dict[tuple, dict] = {}

    def write(self, event: EventContext) -> None:
        if event.produced:
            self.records[event.triple] = event.produced

    def close(self) -> None:
        pass
