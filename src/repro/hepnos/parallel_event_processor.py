"""ParallelEventProcessor: load-balanced parallel event iteration.

The PEP (paper section II-D) lets a group of MPI ranks iterate the
events of a dataset cooperatively:

- a subset of ranks become **readers** (typically as many readers as
  event databases).  Each reader owns a disjoint set of event databases
  and iterates their events through a
  :class:`~repro.hepnos.Prefetcher` in *input batches* (default 16384
  events -- few RPCs, large transfers; requested products arrive with
  one load plan per batch, one request per product database);
- readers chop input batches into *dispatch batches* (default 64
  events -- fine-grained load balancing) and serve them to worker ranks
  on demand through a pull protocol;
- every event is delivered exactly once; workers invoke the
  user-supplied callable on each event.  A load the client's retry
  policy gives up on fails the run: a selection is complete or raises.

With one rank (or ``comm=None``) the PEP degrades to iterating the
Prefetcher sequentially, which is also the mode ingest validation uses.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

from repro.errors import HEPnOSError
from repro.hepnos.column_block import EventBatch
from repro.hepnos.connection import DbTarget
from repro.hepnos.options import PEPOptions, check_columnar
from repro.hepnos.prefetcher import Prefetcher
from repro.monitor import tracing as _tracing

_TAG_REQUEST = 101
_TAG_REPLY = 102
#: input batches a reader may buffer ahead of the workers: one -- the
#: next page loads while the workers drain this one, and every batch
#: buffered beyond it holds a whole input batch of products in memory
_QUEUE_DEPTH = 1


@dataclass
class PEPStatistics:
    """Per-rank accounting for one PEP run."""

    rank: int = 0
    role: str = "worker"
    events_processed: int = 0
    batches_received: int = 0
    events_loaded: int = 0
    load_seconds: float = 0.0
    processing_seconds: float = 0.0
    waiting_seconds: float = 0.0
    total_seconds: float = 0.0
    #: reader only: events served per worker rank
    served: dict = field(default_factory=dict)
    #: product-load latency hidden behind processing (async pipeline)
    overlap_seconds: float = 0.0
    #: time blocked on in-flight product loads at consumption
    prefetch_wait_seconds: float = 0.0

    def absorb(self, reader: Prefetcher) -> None:
        """Take over the counters of the reader this rank loaded with."""
        self.overlap_seconds = reader.overlap_seconds
        self.prefetch_wait_seconds = reader.wait_seconds


class ParallelEventProcessor:
    """Parallel, load-balanced ``for each event`` over a dataset."""

    def __init__(self, datastore, comm=None, *,
                 options: Optional[PEPOptions] = None,
                 products: Sequence[Tuple[object, str]] = (),
                 columns: Optional[Sequence[str]] = None):
        options = options if options is not None else PEPOptions()
        self.options = options
        self.datastore = datastore
        self.comm = comm
        self.input_batch_size = options.input_batch_size
        # A dispatch batch never exceeds one input batch.
        self.dispatch_batch_size = min(options.dispatch_batch_size,
                                       options.input_batch_size)
        self.products = list(products)
        #: fields to project in columnar mode (``process_batches`` with
        #: ``options.columnar_loads``); ``None`` otherwise
        self.columns = list(columns) if columns is not None else None
        if options.columnar_loads:
            check_columnar(self.products, self.columns)
        self._batch_mode = False

    # -- public API --------------------------------------------------------

    def process(self, dataset, fn: Callable) -> PEPStatistics:
        """Invoke ``fn(event)`` for every event of ``dataset``.

        Collective over the communicator: every rank must call it.
        Returns this rank's statistics.
        """
        start = time.monotonic()
        if self.comm is None or self.comm.size == 1:
            stats = self._process_sequential(dataset, fn)
        else:
            stats = self._process_parallel(dataset, fn)
        stats.total_seconds = time.monotonic() - start
        return stats

    def process_batches(self, dataset, fn: Callable) -> PEPStatistics:
        """Invoke ``fn`` once per dispatched *batch* instead of per event.

        With ``options.columnar_loads`` each batch is an
        :class:`~repro.hepnos.column_block.EventBatch` whose projected
        columns were fetched server-side (one ``scan_columns`` per
        database); otherwise ``fn`` receives plain lists of event views.
        Collective over the communicator, like :meth:`process`.
        """
        start = time.monotonic()
        self._batch_mode = True
        try:
            if self.comm is None or self.comm.size == 1:
                stats = self._process_sequential(dataset, fn)
            else:
                stats = self._process_parallel(dataset, fn)
        finally:
            self._batch_mode = False
        stats.total_seconds = time.monotonic() - start
        return stats

    # -- sequential fallback ------------------------------------------------

    def _process_sequential(self, dataset, fn: Callable) -> PEPStatistics:
        stats = PEPStatistics(rank=0, role="sequential")
        reader = self._reader()
        try:
            for batch in reader.pages(self._all_subruns(dataset)):
                t0 = time.monotonic()
                self._process_events(batch, fn, stats)
                stats.processing_seconds += time.monotonic() - t0
        finally:
            stats.absorb(reader)
        return stats

    def _process_events(self, batch, fn: Callable,
                        stats: PEPStatistics) -> None:
        """Apply ``fn`` to every event of one dispatch/input batch.

        Per-event spans only exist while a tracer is installed; the
        disabled path adds a single module-attribute read per batch.
        """
        if self._batch_mode:
            # Batch dispatch: one call covers the whole chunk (the
            # vectorized analysis path -- fn sees an EventBatch or a
            # list of event views, never individual events).
            if _tracing.enabled:
                with _tracing.span("pep.process_batch", events=len(batch),
                                   columnar=isinstance(batch, EventBatch)):
                    fn(batch)
            else:
                fn(batch)
            stats.events_processed += len(batch)
            return
        if _tracing.enabled:
            with _tracing.span("pep.process_batch", events=len(batch)):
                for event in batch:
                    with _tracing.span("pep.event", run=event.run_number,
                                       subrun=event.subrun_number,
                                       event=event.number):
                        fn(event)
                    stats.events_processed += 1
            return
        for event in batch:
            fn(event)
            stats.events_processed += 1

    # -- loading: the Prefetcher's page loop -----------------------------------

    def _reader(self) -> Prefetcher:
        """This pass's event reader.  Per-event ``process()`` always
        reads whole objects, whatever ``columnar_loads`` says."""
        columnar = self._batch_mode and self.options.columnar_loads
        return Prefetcher(self.datastore, options=self.options,
                          products=self.products,
                          columns=self.columns if columnar else None)

    def _all_subruns(self, dataset):
        return [subrun for run in dataset for subrun in run]

    def _walk_once(self, dataset) -> list:
        """The dataset's subruns, walked by rank 0 alone and broadcast
        as ``(run, subrun)`` numbers; every rank rebuilds its own
        handles.  A walk that raises is broadcast too, so that every
        rank raises instead of waiting on the broadcast."""
        comm = self.comm
        numbers = error = None
        if comm.rank == 0:
            try:
                numbers = [(subrun.run.number, subrun.number)
                           for subrun in self._all_subruns(dataset)]
            except Exception as exc:  # noqa: BLE001 - re-raised below
                error = exc
            comm.bcast((numbers, repr(error) if error else None))
            if error is not None:
                raise error
        else:
            numbers, failed = comm.bcast()
            if failed is not None:
                raise HEPnOSError(f"PEP walk failed on rank 0: {failed}")
        return [dataset.run(run).subrun(subrun) for run, subrun in numbers]

    # -- parallel mode ---------------------------------------------------------

    def _roles(self, subruns):
        """Decide reader ranks and the per-reader subrun assignment."""
        groups: dict[DbTarget, list] = {}
        for subrun in subruns:
            # placement hashes the subrun key to its event database
            target = self.datastore.target_for("events", subrun.key)
            groups.setdefault(target, []).append(subrun)
        size = self.comm.size
        # Paper default: one reader per event database -- but never
        # starve the workers when the rank count is small.
        wanted = min(len(groups), max(1, size // 4))
        num_readers = max(1, min(wanted, size - 1, max(len(groups), 1)))
        # Deterministic assignment: sort db groups, round-robin to readers.
        assignments: list[list] = [[] for _ in range(num_readers)]
        for i, target in enumerate(sorted(groups)):
            assignments[i % num_readers].extend(groups[target])
        return num_readers, assignments

    def _process_parallel(self, dataset, fn: Callable) -> PEPStatistics:
        comm = self.comm
        rank = comm.rank
        try:
            num_readers, assignments = self._roles(self._walk_once(dataset))
            if rank < num_readers:
                stats = self._run_reader(assignments[rank],
                                         num_workers=comm.size - num_readers)
            else:
                stats = self._run_worker(fn, readers=list(range(num_readers)))
            stats.rank = rank
            return stats
        finally:
            # Keep the exit collective even on failure so surviving ranks
            # do not hang in recv.
            comm.barrier()

    def _run_reader(self, subruns, num_workers: int) -> PEPStatistics:
        stats = PEPStatistics(role="reader")
        comm = self.comm
        queue: deque = deque()
        lock = threading.Lock()
        ready = threading.Condition(lock)
        state = {"done": False, "error": None}
        max_queued = max(
            1, _QUEUE_DEPTH * self.input_batch_size // self.dispatch_batch_size
        )

        reader = self._reader()

        def loader() -> None:
            try:
                iterator = reader.pages(subruns)
                while True:
                    t0 = time.monotonic()
                    batch = next(iterator, None)
                    stats.load_seconds += time.monotonic() - t0
                    if batch is None:
                        break
                    stats.events_loaded += len(batch)
                    for i in range(0, len(batch), self.dispatch_batch_size):
                        chunk = batch[i : i + self.dispatch_batch_size]
                        with ready:
                            while len(queue) >= max_queued:
                                ready.wait()
                            queue.append(chunk)
                            ready.notify_all()
            except BaseException as exc:  # noqa: BLE001 - forwarded to workers
                state["error"] = exc
            finally:
                stats.absorb(reader)
                with ready:
                    state["done"] = True
                    ready.notify_all()

        thread = threading.Thread(target=loader, daemon=True,
                                  name=f"pep-loader-{comm.rank}")
        thread.start()

        dones_sent = 0
        while dones_sent < num_workers:
            _, worker, _ = comm.recv_with_status(tag=_TAG_REQUEST,
                                                 timeout=None)
            with ready:
                while not queue and not state["done"]:
                    ready.wait()
                chunk = queue.popleft() if queue else None
                ready.notify_all()
            if state["error"] is not None:
                comm.send(("error", repr(state["error"])), dest=worker,
                          tag=_TAG_REPLY)
                dones_sent += 1
                continue
            if chunk is None:
                comm.send(("done", None), dest=worker, tag=_TAG_REPLY)
                dones_sent += 1
            else:
                comm.send(("batch", chunk), dest=worker, tag=_TAG_REPLY)
                stats.served[worker] = stats.served.get(worker, 0) + len(chunk)
        thread.join()
        if state["error"] is not None:
            raise HEPnOSError(f"PEP reader failed: {state['error']!r}")
        return stats

    def _run_worker(self, fn: Callable,
                    readers: list[int]) -> PEPStatistics:
        stats = PEPStatistics(role="worker")
        comm = self.comm
        active = set(readers)
        errors: list[str] = []
        rr = comm.rank % max(len(readers), 1)
        order = readers[rr:] + readers[:rr]  # stagger first contacts

        def request() -> bool:
            """Ask the first reader that still has events for a batch."""
            for reader in order:
                if reader in active:
                    comm.send(None, dest=reader, tag=_TAG_REQUEST)
                    return True
            return False

        in_flight = request()
        while in_flight:
            t0 = time.monotonic()
            (kind, payload), src, _ = comm.recv_with_status(
                tag=_TAG_REPLY, timeout=None
            )
            stats.waiting_seconds += time.monotonic() - t0
            if kind == "error":
                # Keep draining the other readers so they terminate,
                # then report the failure.
                errors.append(payload)
            if kind != "batch":
                active.discard(src)
            # Request the next batch BEFORE processing this one so the
            # fetch overlaps the compute.
            in_flight = request()
            if kind == "batch":
                stats.batches_received += 1
                t1 = time.monotonic()
                self._process_events(payload, fn, stats)
                stats.processing_seconds += time.monotonic() - t1
        if errors:
            raise HEPnOSError(f"PEP reader reported: {errors[0]}")
        return stats
