"""AsyncEngine: pipelined non-blocking I/O for HEPnOS clients.

Mirrors ``hepnos::AsyncEngine`` from the paper (section II-D): most of
HEPnOS's speedup over the file-based workflow comes from hiding store
latency behind computation, and this is the object that does the
hiding.  It manages a bounded window of in-flight non-blocking Yokan
operations (:class:`~repro.yokan.OperationFuture`) and drain-on-shutdown
semantics.  The operations themselves ride the
fabric's shared Argobots runtime -- each forward becomes a handler ULT
on the provider engine's pool -- so the engine's job is purely
client-side flow control: dispatch eagerly while the window has room,
queue (cancellably) when it does not; a settled operation is counted
and forgotten, its answer belongs to whoever waits on the future.

Construct one over a :class:`~repro.hepnos.DataStore` and the
datastore, its :class:`~repro.hepnos.Prefetcher`, its
:class:`~repro.hepnos.WriteBatch`, and the ParallelEventProcessor all
pick it up automatically::

    engine = AsyncEngine(datastore, max_inflight=8)
    prefetcher = Prefetcher(datastore, products=[(Hit, "reco")])
    # product loads for page N+1 are now in flight while page N is
    # being processed; DataStore.shutdown() drains the window.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import List

from repro.errors import OperationCancelled, ReproError
from repro.monitor import tracing as _tracing
from repro.yokan.nonblocking import OperationFuture


@dataclass
class AsyncEngineStats:
    """Counters for one engine's lifetime."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    #: operations that had to queue behind a full window
    deferred: int = 0
    peak_inflight: int = 0


class AsyncEngine:
    """Bounded-window scheduler for non-blocking HEPnOS operations.

    ``max_inflight`` caps how many forwards may be outstanding at once
    (the paper's pipelining is bounded for the same reason its write
    batches are: unbounded issue oversaturates the NIC injection
    bandwidth).  Submissions beyond the cap queue in FIFO order and
    stay cancellable until a slot frees.

    A slot is considered free once the operation's *response has
    landed* -- retirement (decode, CRC check, any policy-driven
    re-issues) happens on whichever thread waits on the future, never
    on the transport threads.
    """

    def __init__(self, datastore=None, max_inflight: int = 8):
        if max_inflight <= 0:
            raise ValueError("max_inflight must be positive")
        self.max_inflight = max_inflight
        self.fabric = None
        self.stats = AsyncEngineStats()
        self._lock = threading.RLock()
        #: submitted, not yet settled (dispatched or queued)
        self._outstanding: List[OperationFuture] = []
        #: pending subset of _outstanding, FIFO
        self._queued: deque[OperationFuture] = deque()
        self.datastore = None
        if datastore is not None:
            self.attach(datastore)

    def attach(self, datastore) -> "AsyncEngine":
        """Bind to a datastore (sets ``datastore.async_engine``)."""
        self.datastore = datastore
        self.fabric = datastore.fabric
        datastore.async_engine = self
        return self

    # -- submission --------------------------------------------------------

    def submit(self, future: OperationFuture) -> OperationFuture:
        """Admit a future to the window; dispatch now or queue.

        Accepts an undispatched future (``dispatch=False`` on the nb
        verbs); already-dispatched futures are admitted for completion
        tracking only.  Returns the future for chaining.
        """
        with self._lock:
            self.stats.submitted += 1
            self._outstanding.append(future)
            if (future.state == OperationFuture.PENDING
                    and self._inflight_count() >= self.max_inflight):
                self.stats.deferred += 1
                self._queued.append(future)
                future.then(self._record_done)
                return future
        future.then(self._record_done)
        future.dispatch()
        self.pump()
        return future

    # -- progress ----------------------------------------------------------

    def _inflight_count(self) -> int:
        # Caller holds the lock.  A dispatched future whose response
        # has landed no longer occupies the transport, so its slot is
        # free even before someone retires it.
        count = 0
        for future in self._outstanding:
            if future.state != OperationFuture.INFLIGHT:
                continue
            eventual = future._eventual
            if eventual is None or not eventual.is_ready:
                count += 1
        return count

    def pump(self) -> int:
        """Advance the window: dispatch queued operations into free slots.

        Called from every touch point (submit / wait / drain); inline
        fabrics also get a bounded progress poll so responses can land
        without a blocking wait.  Returns how many queued operations
        were dispatched.
        """
        if self.fabric is not None:
            self.fabric.poll()
        to_dispatch = []
        with self._lock:
            inflight = self._inflight_count()
            self.stats.peak_inflight = max(self.stats.peak_inflight, inflight)
            while self._queued and inflight < self.max_inflight:
                future = self._queued.popleft()
                if future.state != OperationFuture.PENDING:
                    continue  # cancelled (or force-dispatched by wait())
                to_dispatch.append(future)
                inflight += 1
            if to_dispatch:
                self.stats.peak_inflight = max(self.stats.peak_inflight,
                                               inflight)
        for future in to_dispatch:
            future.dispatch()
        return len(to_dispatch)

    def _record_done(self, future: OperationFuture) -> None:
        """Count a settled operation and let go of it: its answer
        belongs to whoever waits on the future, not to the engine."""
        with self._lock:
            self._outstanding.remove(future)
            if future in self._queued:  # cancelled, or waited on directly
                self._queued.remove(future)
            if future.state == OperationFuture.CANCELLED:
                self.stats.cancelled += 1
            elif future.exception is not None:
                self.stats.failed += 1
                self.stats.completed += 1
            else:
                self.stats.completed += 1

    @property
    def outstanding(self) -> int:
        with self._lock:
            return sum(1 for f in self._outstanding if not f.done)

    # -- shutdown ----------------------------------------------------------

    def drain(self, raise_errors: bool = False) -> list:
        """Retire every outstanding operation (queued ones included).

        Each failure is ``(future, exception)`` in the returned list;
        cancelled futures are skipped silently.  ``DataStore.shutdown``
        calls this so no acknowledged-but-unretired write or prefetch
        is abandoned.  With ``raise_errors`` the first failure re-raises
        after everything has settled.
        """
        failures = []
        with _tracing.span("hepnos.async_engine.drain",
                           outstanding=self.outstanding) as sp:
            while True:
                with self._lock:
                    pending = [f for f in self._outstanding if not f.done]
                if not pending:
                    break
                for future in pending:
                    try:
                        future.wait()
                    except OperationCancelled:
                        pass
                    except ReproError as exc:
                        failures.append((future, exc))
                self.pump()
            sp.set_tag("failures", len(failures))
        if raise_errors and failures:
            raise failures[0][1]
        return failures

    def __enter__(self) -> "AsyncEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.drain(raise_errors=exc_type is None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"AsyncEngine(max_inflight={self.max_inflight}, "
                f"outstanding={self.outstanding})")
