"""ParallelEventProcessor: load-balanced parallel event iteration.

The PEP (paper section II-D) lets a group of MPI ranks iterate the
events of a dataset cooperatively:

- a subset of ranks become **readers** (typically as many readers as
  event databases).  Each reader owns a disjoint set of event databases
  and streams their events in *input batches* (default 16384 events --
  few RPCs, large transfers), prefetching requested products with
  one load plan per batch (one request per product database);
- readers chop input batches into *dispatch batches* (default 64
  events -- fine-grained load balancing) and serve them to worker ranks
  on demand through a pull protocol;
- every event is delivered exactly once; workers invoke the
  user-supplied callable on each event.

With one rank (or ``comm=None``) the PEP degrades to sequential
prefetched iteration, which is also the mode ingest validation uses.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

from repro.errors import HEPnOSError, ProductNotFound
from repro.faults.retry import RETRYABLE_ERRORS
from repro.hepnos import keys as hkeys
from repro.hepnos.column_block import EventBatch
from repro.hepnos.connection import DbTarget
from repro.hepnos.load_plan import LoadPlan
from repro.hepnos.options import PEPOptions, check_columnar
from repro.hepnos.product import product_type_name
from repro.monitor import tracing as _tracing

_TAG_REQUEST = 101
_TAG_REPLY = 102
#: input batches a reader may buffer ahead of the workers
_QUEUE_DEPTH = 8


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
    #: batch loads re-attempted after a transient failure
    load_retries: int = 0
    #: batch loads that exhausted their retry budget
    load_failures: int = 0
    #: subruns abandoned under ``on_load_failure="skip"``
    subruns_skipped: int = 0
    #: product-load latency hidden behind processing (async pipeline)
    overlap_seconds: float = 0.0
    #: time blocked on in-flight product loads at consumption
    prefetch_wait_seconds: float = 0.0

    @staticmethod
    def aggregate(stats_list: "list[PEPStatistics]") -> dict:
        """Summarize a run's per-rank statistics (the offline analysis
        of the per-rank timestamp files the paper describes)."""
        workers = [s for s in stats_list if s.role in ("worker", "sequential")]
        readers = [s for s in stats_list if s.role == "reader"]
        events = [w.events_processed for w in workers]
        mean_events = sum(events) / len(events) if events else 0.0
        return {
            "ranks": len(stats_list),
            "readers": len(readers),
            "workers": len(workers),
            "events_processed": sum(events),
            "events_loaded": sum(r.events_loaded for r in readers),
            "worker_imbalance": (
                max(events) / mean_events if mean_events else 1.0
            ),
            "total_seconds": max(
                (s.total_seconds for s in stats_list), default=0.0
            ),
            "processing_seconds": sum(w.processing_seconds for w in workers),
            "waiting_seconds": sum(w.waiting_seconds for w in workers),
            "load_retries": sum(s.load_retries for s in stats_list),
            "load_failures": sum(s.load_failures for s in stats_list),
            "subruns_skipped": sum(s.subruns_skipped for s in stats_list),
            "overlap_seconds": sum(s.overlap_seconds for s in stats_list),
            "prefetch_wait_seconds": sum(
                s.prefetch_wait_seconds for s in stats_list
            ),
        }


class _EventStub:
    """A shipped event: identity plus prefetched products.

    Presented to the user callable; ``load`` first serves prefetched
    products and falls back to the datastore otherwise.
    """

    __slots__ = ("datastore", "key", "_triple", "_products")

    def __init__(self, datastore, key: bytes, triple: Tuple[int, int, int],
                 products: dict):
        self.datastore = datastore
        self.key = key
        self._triple = triple
        self._products = products

    @property
    def number(self) -> int:
        return self._triple[2]

    @property
    def run_number(self) -> int:
        return self._triple[0]

    @property
    def subrun_number(self) -> int:
        return self._triple[1]

    def triple(self) -> Tuple[int, int, int]:
        return self._triple

    def load(self, product_type, label: str = ""):
        spec = (product_type_name(product_type), label)
        if spec in self._products:
            value = self._products[spec]
            if value is None:
                raise ProductNotFound(
                    f"no product label={label!r} type={spec[0]!r} "
                    f"in event {self._triple}"
                )
            return value
        return self.datastore.load_product(self.key, product_type, label=label)

    def store(self, obj, label: str = "", type_name=None, batch=None):
        """Store a product on this event (same API as :class:`Event`).

        Lets analysis callables write derived products back without
        touching raw container keys.
        """
        return self.datastore.store_product(self.key, obj, label=label,
                                            type_name=type_name, batch=batch)


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
        self.products = [
            (product_type_name(ptype), label) for ptype, label in products
        ]
        #: re-attempts per batch load on top of the client-level retry
        #: policy (which already masks individual RPC failures)
        self.load_retries = options.load_retries
        #: what to do when a batch load exhausts its retries: ``raise``
        #: fails the run; ``skip`` abandons the rest of that subrun,
        #: counts it in :attr:`PEPStatistics.subruns_skipped`, and keeps
        #: going (graceful degradation).
        self.on_load_failure = options.on_load_failure
        #: fields to project in columnar mode (``process_batches`` with
        #: ``options.columnar_loads``); ``None`` otherwise
        self.columns = list(columns) if columns is not None else None
        check_columnar(options, self.products, self.columns)
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
        database); otherwise ``fn`` receives the plain stub lists.
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
        for batch in self._load_batches(self._all_subruns(dataset), stats):
            t0 = time.monotonic()
            self._process_events(batch, fn, stats)
            stats.processing_seconds += time.monotonic() - t0
        return stats

    def _process_events(self, batch, fn: Callable,
                        stats: PEPStatistics) -> None:
        """Apply ``fn`` to every stub of one dispatch/input batch.

        Per-event spans only exist while a tracer is installed; the
        disabled path adds a single module-attribute read per batch.
        """
        if self._batch_mode:
            # Batch dispatch: one call covers the whole chunk (the
            # vectorized analysis path -- fn sees an EventBatch or a
            # stub list, never individual events).
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
                for stub in batch:
                    with _tracing.span("pep.event", run=stub.run_number,
                                       subrun=stub.subrun_number,
                                       event=stub.number):
                        fn(stub)
                    stats.events_processed += 1
            return
        for stub in batch:
            fn(stub)
            stats.events_processed += 1

    # -- shared loading machinery ----------------------------------------------

    def _all_subruns(self, dataset):
        return [subrun for run in dataset for subrun in run]

    def _subruns_by_event_db(self, dataset) -> dict[DbTarget, list]:
        """Group the dataset's subruns by the event database holding
        their events (placement hashes the subrun key)."""
        groups: dict[DbTarget, list] = {}
        for subrun in self._all_subruns(dataset):
            target = self.datastore.target_for("events", subrun.key)
            groups.setdefault(target, []).append(subrun)
        return groups

    def _load_batches(self, subruns, stats: Optional[PEPStatistics] = None):
        """Yield batches of :class:`_EventStub` of up to input_batch_size.

        One loop for every lane and mode: list a key page (cheap,
        synchronous), issue its load plan -- one request per product
        database, the few-RPCs/large-payload pattern from the paper --
        and retire the oldest page once the look-ahead window is full.
        The window is 0 pages without an :class:`~repro.hepnos.AsyncEngine`
        (issue, then wait) and 1 with one: batch N+1's products are on
        the wire while batch N's stubs are being processed.

        Listing and loading each get a bounded retry budget on top of
        the client's own retry policy (stale shard maps and dead
        primaries never reach it: the load executor re-issues those
        itself).  Exhausting it either fails the run or
        (``on_load_failure="skip"``) abandons the remainder of the
        subrun -- in-flight pages of it are discarded -- and moves on,
        with the skip recorded in ``stats``.
        """
        lookahead = (1 if self.datastore.async_engine is not None
                     and self.products else 0)
        window: deque = deque()
        skipped: set[int] = set()
        for subrun, page in self._key_pages(subruns, stats, skipped):
            window.append((subrun, page,
                           self.datastore.issue_load(self._plan(page))))
            if len(window) > lookahead:
                yield from self._retire(*window.popleft(), stats, skipped)
        while window:
            yield from self._retire(*window.popleft(), stats, skipped)

    def _retrying(self, fn: Callable, stats: Optional[PEPStatistics]):
        """Run idempotent ``fn`` under the ``load_retries`` budget."""
        attempts = 0
        while True:
            try:
                return fn()
            except RETRYABLE_ERRORS:
                attempts += 1
                if stats is not None:
                    stats.load_retries += 1
                if attempts > self.load_retries:
                    if stats is not None:
                        stats.load_failures += 1
                    raise

    def _abandon(self, subrun, stats: Optional[PEPStatistics],
                 skipped: set) -> bool:
        """A load of ``subrun`` gave up: under ``on_load_failure="skip"``
        mark the subrun abandoned, otherwise tell the caller to raise."""
        if self.on_load_failure != "skip":
            return False
        if stats is not None:
            stats.subruns_skipped += 1
        skipped.add(id(subrun))
        return True

    def _key_pages(self, subruns, stats: Optional[PEPStatistics],
                   skipped: set):
        """``(subrun, event key page)`` pairs, in order."""

        def list_page():
            with _tracing.span("pep.list_events",
                               limit=self.input_batch_size) as sp:
                page = list(self.datastore.list_child_keys(
                    "events", subrun.key, start_after=cursor,
                    limit=self.input_batch_size,
                ))
                sp.set_tag("events", len(page))
            return page

        for subrun in subruns:
            cursor = b""
            while id(subrun) not in skipped:
                try:
                    page = self._retrying(list_page, stats)
                except RETRYABLE_ERRORS:
                    if not self._abandon(subrun, stats, skipped):
                        raise
                    break
                if not page:
                    break
                cursor = page[-1]
                yield subrun, page
                if len(page) < self.input_batch_size:
                    break

    def _plan(self, event_keys: list[bytes]) -> LoadPlan:
        """The one place a lane is chosen.  Per-event ``process()``
        always reads whole objects, whatever ``columnar_loads`` says."""
        columnar = self._batch_mode and self.options.columnar_loads
        return LoadPlan(event_keys, self.products,
                        columns=self.columns if columnar else None,
                        whole_events=self.options.packed_loads)

    def _retire(self, subrun, page, pending,
                stats: Optional[PEPStatistics], skipped: set):
        """Wait for one issued page; yields its batch (or nothing when
        its subrun was abandoned)."""
        if id(subrun) in skipped:
            return
        wait_start = time.monotonic()
        overlap = pending.overlap_seconds(wait_start)
        with _tracing.span("pep.materialize", events=len(page),
                           products=len(self.products),
                           overlap_seconds=round(overlap, 6)):
            try:
                # A wait() that gave up re-issues what is still
                # unanswered when called again.
                loaded = self._retrying(pending.wait, stats)
            except RETRYABLE_ERRORS:
                if not self._abandon(subrun, stats, skipped):
                    raise
                return
            if stats is not None:
                stats.overlap_seconds += overlap
                stats.prefetch_wait_seconds += time.monotonic() - wait_start
            run_number = subrun.run.number
            subrun_number = subrun.number
            stubs = [
                _EventStub(self.datastore, key,
                           (run_number, subrun_number,
                            hkeys.child_number(key)),
                           loaded.event_products(i))
                for i, key in enumerate(page)
            ]
        # A columnar batch's consumers read the block's arrays; stubs
        # only carry what could not be projected.
        yield stubs if loaded.block is None else EventBatch(stubs,
                                                            loaded.block)

    # -- parallel mode ---------------------------------------------------------

    def _roles(self, dataset):
        """Decide reader ranks and the per-reader subrun assignment."""
        groups = self._subruns_by_event_db(dataset)
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
        num_readers, assignments = self._roles(dataset)
        rank = comm.rank
        try:
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

        def loader() -> None:
            try:
                iterator = self._load_batches(subruns, stats)
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
                with ready:
                    state["done"] = True
                    ready.notify_all()

        thread = threading.Thread(target=loader, daemon=True,
                                  name=f"pep-loader-{comm.rank}")
        thread.start()

        dones_sent = 0
        while dones_sent < num_workers:
            worker, _src, _tag = None, None, None
            payload, src, _ = comm.recv_with_status(tag=_TAG_REQUEST,
                                                    timeout=None)
            worker = src
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
