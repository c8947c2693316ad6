"""WriteBatch and AsynchronousWriteBatch (paper section II-D).

A :class:`WriteBatch` accumulates updates in a local buffer, groups
them by target database (not all updates go to the same database), and
sends one batched RPC per database on flush -- trading latency for a
dramatic reduction in RPC count when storing millions of small items.

An :class:`AsynchronousWriteBatch` additionally issues those batched
RPCs in the background as thresholds fill, and guarantees completion
when its destructor (``__exit__`` / :meth:`wait`) runs.  With an
:class:`~repro.hepnos.AsyncEngine` available, flushes go through the
engine's bounded in-flight window as ``put_multi_nb`` futures, retiring
under the client retry policy; without one, flushes issue raw forwards
and :meth:`wait` recovers failures synchronously.
"""

from __future__ import annotations

from repro.argobots import Eventual
from repro.errors import HEPnOSError, NetworkFailure, ReproError
from repro.faults.retry import RETRYABLE_ERRORS
from repro.hepnos.connection import DbTarget
from repro.monitor import tracing as _tracing
from repro.serial import dumps
from repro.yokan import wire
from repro.yokan.client import frame_put_multi


class WriteBatch:
    """Buffer of (database, key, value) updates, flushed in batches.

    Use as a context manager; exit flushes::

        with WriteBatch(datastore) as batch:
            run = ds.create_run(1, batch=batch)
            event.store(product, batch=batch)
    """

    def __init__(self, datastore, flush_threshold: int = 0):
        self.datastore = datastore
        #: per-target update buffers (direct-target append path)
        self._buffers: dict[DbTarget, list[tuple[bytes, bytes]]] = {}
        #: (kind, parent_key) -> pairs, resolved to a target at *flush*
        #: time so a long-lived batch stays correct across a live
        #: rescale epoch swap.
        self._placed: dict[tuple[str, bytes], list[tuple[bytes, bytes]]] = {}
        self._pending = 0
        self.flush_threshold = flush_threshold
        self.flushes = 0
        self.items_written = 0
        #: pairs re-sent because their group's shard moved mid-flush.
        self.forwarded_writes = 0
        self._active = True

    def append(self, target: DbTarget, key: bytes, value: bytes) -> None:
        """Queue one update bound to an explicit target database."""
        if not self._active:
            raise HEPnOSError("write batch already closed")
        self._buffers.setdefault(target, []).append((key, value))
        self._pending += 1
        if self.flush_threshold and self._pending >= self.flush_threshold:
            self.flush()

    def append_placed(self, kind: str, parent_key: bytes, key: bytes,
                      value: bytes) -> None:
        """Queue one update placed by (kind, parent) at flush time."""
        if not self._active:
            raise HEPnOSError("write batch already closed")
        self._placed.setdefault((kind, bytes(parent_key)), []).append(
            (key, value))
        self._pending += 1
        if self.flush_threshold and self._pending >= self.flush_threshold:
            self.flush()

    @property
    def pending(self) -> int:
        return self._pending

    def _drain(self):
        """Take the buffered updates, resolved under the current map.

        Returns ``(epoch, groups, pending)`` where each group is
        ``(placement_key_or_None, target, pairs)``; the placement key is
        kept so :meth:`_forward_moved` can re-check each group after the
        flush lands.
        """
        placed, self._placed = self._placed, {}
        buffers, self._buffers = self._buffers, {}
        pending, self._pending = self._pending, 0
        placement = self.datastore.placement
        groups = []
        for (kind, parent), pairs in placed.items():
            target = placement.database_for(kind, parent)
            groups.append(((kind, parent), target, pairs))
        for target, pairs in buffers.items():
            if pairs:
                groups.append((None, target, pairs))
        return placement.epoch, groups, pending

    def _forward_moved(self, epoch: int, groups) -> None:
        """Write-forwarding: re-send groups whose shard moved mid-flush.

        If a live rescale swapped the shard map while this flush was on
        the wire, a group's pairs may have landed on a shard the
        migration plan has already scanned.  Re-sending them to their
        new shard (and erasing the stale copies) guarantees the data
        survives the migration's final erase of the old shard.
        """
        placement = self.datastore.placement
        if placement.epoch == epoch:
            return
        moved = 0
        for placed_key, target, pairs in groups:
            if placed_key is None:
                continue
            kind, parent = placed_key
            now = placement.database_for(kind, parent)
            if now != target:
                self.datastore.handle_for_target(now).put_multi(pairs)
                self.datastore.handle_for_target(target).erase_multi(
                    [k for k, _ in pairs])
                moved += len(pairs)
        if moved:
            self.forwarded_writes += moved

    def flush(self) -> None:
        """Send all buffered updates, one batched RPC per database."""
        epoch, groups, pending = self._drain()
        if not groups:
            return
        merged: dict[DbTarget, list] = {}
        for _, target, pairs in groups:
            merged.setdefault(target, []).extend(pairs)
        with _tracing.span("hepnos.write_batch.flush", items=pending,
                           databases=len(merged), epoch=epoch):
            for target, pairs in merged.items():
                handle = self.datastore.handle_for_target(target)
                written = handle.put_multi(pairs)
                self.items_written += written
                self.flushes += 1
            self._forward_moved(epoch, groups)

    def close(self) -> None:
        if self._active:
            self.flush()
            self._active = False

    def __enter__(self) -> "WriteBatch":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self._active = False  # don't flush partial state on error


class _FlushRecord:
    """One issued flush's groups, write-forwarded once it fully lands.

    ``outstanding`` counts the flush's per-database transfers still in
    flight; when the last one retires the groups are re-checked for
    mid-flight shard moves (:meth:`WriteBatch._forward_moved`) -- so
    forwarding happens as each flush retires rather than only at
    :meth:`AsynchronousWriteBatch.wait`.
    """

    __slots__ = ("epoch", "groups", "outstanding")

    def __init__(self, epoch: int, groups, outstanding: int):
        self.epoch = epoch
        self.groups = groups
        self.outstanding = outstanding


class AsynchronousWriteBatch(WriteBatch):
    """A WriteBatch whose flushes run in the background.

    Each flush issues the per-database batched RPCs without waiting;
    :meth:`wait` (or context exit) blocks until every outstanding
    update has completed and re-raises the first failure.
    """

    def __init__(self, datastore, flush_threshold: int = 1024,
                 async_engine=None):
        if flush_threshold <= 0:
            raise HEPnOSError("async batches need a positive flush threshold")
        super().__init__(datastore, flush_threshold=flush_threshold)
        #: (eventual, target, pairs, record) per in-flight flush; the
        #: pairs are kept so a failed flush can be re-issued
        #: synchronously.
        self._inflight: list[tuple[Eventual, DbTarget, list,
                                   _FlushRecord]] = []
        #: (future, target, pairs, record) per in-flight engine-path
        #: flush.
        self._nb_inflight: list = []
        #: per-flush records awaiting write-forwarding; each is dropped
        #: as its last transfer retires, so this stays bounded by the
        #: genuinely in-flight flushes instead of growing across the
        #: batch's lifetime.
        self._sent_groups: list[_FlushRecord] = []
        #: failures swept up opportunistically by :meth:`flush`,
        #: re-raised by the next :meth:`wait`.
        self._swept_failures: list[BaseException] = []
        self._async_engine = async_engine
        #: number of failed background flushes recovered by re-issue.
        self.recovered_flushes = 0

    @property
    def async_engine(self):
        if self._async_engine is not None:
            return self._async_engine
        return getattr(self.datastore, "async_engine", None)

    def flush(self) -> None:
        self._sweep_retired()
        if any(rec.epoch != self.datastore.placement.epoch
               for rec in self._sent_groups):
            # A live rescale swapped the shard map under an in-flight
            # flush: drain synchronously so its pairs are forwarded
            # *now*, before the migration can commit and strand them on
            # a shard the migrator already scanned.
            self.wait()
        engine = self.async_engine
        if engine is not None:
            self._flush_engine(engine)
            return
        epoch, groups, pending = self._drain()
        if not groups:
            return
        merged: dict[DbTarget, list] = {}
        for _, target, pairs in groups:
            merged.setdefault(target, []).extend(pairs)
        record = _FlushRecord(epoch, groups, len(merged))
        self._sent_groups.append(record)
        with _tracing.span("hepnos.write_batch.flush", items=pending,
                           databases=len(merged), asynchronous=True,
                           epoch=epoch):
            for target, pairs in merged.items():
                # Issue the batched put without waiting (cf.
                # DatabaseHandle.put_multi, which would block on the
                # response).
                request = frame_put_multi(self.datastore.engine,
                                          target.name, pairs)
                rpc = self.datastore.engine.create_handle(
                    target.address, "yokan.put_multi"
                )
                try:
                    eventual = rpc.iforward(
                        wire.seal(dumps(request)), target.provider_id)
                    # Keep the bulk registration (weakly held by the
                    # fabric) and its buffer alive until the transfer
                    # completes.
                    eventual._batch_bulk = request  # type: ignore[attr-defined]
                except RETRYABLE_ERRORS as exc:
                    # The fault model rejected the send itself.  Record
                    # the flush as already-failed so wait() re-issues it
                    # through the retrying client path instead of losing
                    # it (and the remaining targets' buffers with it).
                    eventual = Eventual()
                    eventual.set_exception(exc)
                self._inflight.append((eventual, target, pairs, record))
                self.items_written += len(pairs)
                self.flushes += 1

    def _flush_engine(self, engine) -> None:
        """Flush through the AsyncEngine's bounded in-flight window."""
        epoch, groups, pending = self._drain()
        if not groups:
            return
        merged: dict[DbTarget, list] = {}
        for _, target, pairs in groups:
            merged.setdefault(target, []).extend(pairs)
        record = _FlushRecord(epoch, groups, len(merged))
        self._sent_groups.append(record)
        with _tracing.span("hepnos.write_batch.flush", items=pending,
                           databases=len(merged), asynchronous=True,
                           engine=True, epoch=epoch):
            for target, pairs in merged.items():
                handle = self.datastore.handle_for_target(target)
                future = handle.put_multi_nb(pairs, dispatch=False)
                engine.submit(future)
                self._nb_inflight.append((future, target, pairs, record))
                self.items_written += len(pairs)
                self.flushes += 1

    def wait(self) -> None:
        """Block until every background flush has completed.

        Every in-flight flush is drained even if an early one failed
        (abandoning the rest would silently lose data).  A flush that
        failed with a retryable transport error -- or was asked to
        retry by the provider -- is re-issued synchronously through the
        client path, which applies the retry policy.  The first
        unrecovered failure is re-raised once everything has settled
        (including failures swept up by an intervening :meth:`flush`).
        """
        failures, self._swept_failures = self._swept_failures, []
        self._wait_engine(failures)
        inflight, self._inflight = self._inflight, []
        if inflight:
            with _tracing.span("hepnos.write_batch.wait",
                               inflight=len(inflight)) as sp:
                for eventual, target, pairs, record in inflight:
                    self._retire_eventual(eventual, target, pairs, failures)
                    self._record_done(record)
                sp.set_tag("recovered", self.recovered_flushes)
                if failures:
                    sp.set_tag("error", type(failures[0]).__name__)
                    sp.set_tag("failed", len(failures))
        if failures:
            raise failures[0]

    def _record_done(self, record: _FlushRecord) -> None:
        """Count one retired transfer; forward the flush once complete."""
        record.outstanding -= 1
        if record.outstanding == 0:
            try:
                self._sent_groups.remove(record)
            except ValueError:  # pragma: no cover - defensive
                pass
            self._forward_moved(record.epoch, record.groups)

    def _sweep_retired(self) -> None:
        """Opportunistically retire flushes whose transfers have landed.

        Runs at every :meth:`flush`, so write-forwarding across an
        epoch swap happens as each in-flight flush retires rather than
        waiting for :meth:`wait`, and ``_sent_groups`` cannot grow
        across repeated flushes.  Failures found here are deferred to
        the next :meth:`wait`.
        """
        still: list = []
        for entry in self._inflight:
            eventual, target, pairs, record = entry
            if eventual.is_ready:
                self._retire_eventual(eventual, target, pairs,
                                      self._swept_failures)
                self._record_done(record)
            else:
                still.append(entry)
        self._inflight = still
        still_nb: list = []
        for entry in self._nb_inflight:
            future, target, pairs, record = entry
            if future.test():
                self._retire_future(future, target, pairs,
                                    self._swept_failures)
                self._record_done(record)
            else:
                still_nb.append(entry)
        self._nb_inflight = still_nb

    def _retire_eventual(self, eventual, target, pairs,
                         failures: list) -> None:
        """Settle one raw-forward flush, recovering retryable failures."""
        from repro.yokan.client import _Retry, _unwrap

        try:
            result = _unwrap(self.datastore.fabric.wait(eventual))
            if isinstance(result, _Retry):
                raise NetworkFailure(
                    "provider asked the batched put to retry"
                )
        except RETRYABLE_ERRORS:
            try:
                self.datastore.handle_for_target(target).put_multi(pairs)
                self.recovered_flushes += 1
            except ReproError as exc:
                failures.append(exc)
        except ReproError as exc:
            failures.append(exc)

    def _retire_future(self, future, target, pairs,
                       failures: list) -> None:
        """Settle one engine-path flush, recovering retryable failures."""
        from repro.yokan.client import _Retry

        try:
            result = future.wait()
            if isinstance(result, _Retry):
                # Provider asked to retry after the window closed;
                # re-issue through the blocking path.
                self.datastore.handle_for_target(target).put_multi(pairs)
                self.recovered_flushes += 1
        except RETRYABLE_ERRORS:
            try:
                self.datastore.handle_for_target(target).put_multi(pairs)
                self.recovered_flushes += 1
            except ReproError as exc:
                failures.append(exc)
        except ReproError as exc:
            failures.append(exc)

    def _wait_engine(self, failures: list) -> None:
        """Retire engine-path flushes (no-op when none are in flight)."""
        nb_inflight, self._nb_inflight = self._nb_inflight, []
        if not nb_inflight:
            return
        with _tracing.span("hepnos.write_batch.wait",
                           inflight=len(nb_inflight), engine=True) as sp:
            for future, target, pairs, record in nb_inflight:
                self._retire_future(future, target, pairs, failures)
                self._record_done(record)
            sp.set_tag("recovered", self.recovered_flushes)
            if failures:
                sp.set_tag("error", type(failures[0]).__name__)
                sp.set_tag("failed", len(failures))

    def close(self) -> None:
        if self._active:
            self.flush()
            self.wait()
            self._active = False
