"""The product write path: write batches over one store executor.

A :class:`WriteBatch` (paper section II-D) accumulates updates in a
local buffer, groups them by target database (not all updates go to the
same database), and sends one batched RPC per database on flush --
trading latency for a dramatic reduction in RPC count when storing
millions of small items.  An :class:`AsynchronousWriteBatch` is the
same object that waits later: flushes go out as thresholds fill, and
completion is guaranteed when :meth:`~AsynchronousWriteBatch.wait` (or
context exit) runs.

Both are issue + wait on :class:`PendingStore`, the write-side mirror
of :class:`~repro.hepnos.load_plan.PendingLoad`: it resolves each
``(kind, parent)`` group under the current shard map, sends one
``put_columns_nb`` per involved database (through the datastore's
:class:`~repro.hepnos.AsyncEngine` window when one is attached),
retires them under the datastore's shard retry -- so a dead primary's
backup absorbs the write -- and forwards the groups whose shard moved
while they were on the wire (:func:`forward_moved`, the rule the
single-pair point store shares).
"""

from __future__ import annotations

from itertools import chain, repeat

from repro.errors import HEPnOSError, ReproError
from repro.monitor import tracing as _tracing


def forward_moved(store, smap, landed: dict, groups: dict) -> int:
    """Write-forwarding: re-send the groups whose shard moved in flight.

    ``landed`` maps each ``(kind, parent)`` group to the database that
    acknowledged its ``groups`` pairs, resolved under ``smap``.  If a
    live rescale swapped the shard map since, a group may sit on a shard
    the migration has already scanned: it is copied to its current
    shard, *then* the stale copy is erased (and ``landed`` updated, so a
    retried call moves nothing twice) -- the data survives the
    migration's final erase of the old shard.  Returns the pairs moved.
    """
    current = store.placement
    if current is smap:
        return 0
    moved = 0
    for group, target in landed.items():
        now = current.database_for(*group)
        if now != target:
            pairs = groups[group]
            store.handle_for_target(now).put_multi(pairs)
            store.handle_for_target(target).erase_multi(
                [key for key, _ in pairs])
            landed[group] = now
            moved += len(pairs)
    return moved


class PendingStore:
    """One flush in flight: issued at construction, retired by :meth:`wait`.

    Owns what every batched store needs alike: grouping by current
    shard, one non-blocking ``put_multi`` per database, retirement under
    the client retry policy and the datastore's stale-map / failover
    retry (only the groups no database acknowledged are re-sent), and
    write-forwarding.  Counts go to the owning batch as they happen.
    """

    def __init__(self, batch: "WriteBatch", groups: dict):
        self.batch = batch
        self.store = batch.datastore
        #: (kind, parent) -> pairs
        self.groups = groups
        #: (kind, parent) -> the database that acknowledged the group
        self.landed: dict = {}
        #: the keys of each acknowledged transfer
        self.acknowledged: list = []
        #: the shard map the groups were first resolved under
        self.smap = self.store.placement
        self.transfers = self._send(groups)
        batch.flushes += len(self.transfers)

    def _send(self, groups) -> list:
        """One ``put_columns_nb`` per database ``groups`` resolve to now:
        each database's pairs leave as a key column and a value column."""
        store, placement = self.store, self.store.placement
        by_kind: dict = {}
        for group in groups:
            by_kind.setdefault(group[0], []).append(group)
        by_target: dict = {}
        for kind, members in by_kind.items():
            targets = placement.database_for_many(
                kind, [parent for _, parent in members])
            for group, target in zip(members, targets):
                by_target.setdefault(target, []).append(group)
        engine = store.async_engine
        transfers = []
        for target, members in by_target.items():
            pairs = [pair for group in members
                     for pair in self.groups[group]]
            keys = [key for key, _ in pairs]
            future = store.handle_for_target(target).put_columns_nb(
                keys, [value for _, value in pairs], dispatch=engine is None)
            if engine is not None:
                engine.submit(future)
            transfers.append((target, members, keys, future))
        return transfers

    @property
    def ready(self) -> bool:
        """Whether every transfer has settled (``wait`` would not block)."""
        return all(future.test() for *_, future in self.transfers)

    def wait(self) -> None:
        """Retire the flush: every transfer settles, then the first
        failure (if any) is raised.

        Runs under the datastore's shard retry: a giveup against a dead
        primary that has a backup re-sends what is unacknowledged there.
        So does calling ``wait`` again after it raised.
        """
        batch = self.batch

        def attempt():
            resend = self.transfers is None
            if resend:
                self.transfers = self._send(
                    [g for g in self.groups if g not in self.landed])
            transfers, self.transfers = self.transfers, None
            failure = None
            for target, members, keys, future in transfers:
                try:
                    future.wait()
                except ReproError as exc:
                    failure = failure or exc
                    continue
                self.landed.update(dict.fromkeys(members, target))
                self.acknowledged.append(keys)
                if resend or future.retries:
                    batch.recovered_flushes += 1
            if failure is not None:
                raise failure
            batch.forwarded_writes += forward_moved(
                self.store, self.smap, self.landed, self.groups)

        try:
            self.store._with_shard_retry(attempt)
        finally:
            # A load between a pair's append and its acknowledgement may
            # have cached the value it overwrites: one locked pass drops
            # every acknowledged key (only product keys are ever cached,
            # so a container key drops nothing).
            cache = self.store._product_cache
            if cache is not None:
                cache.invalidate(*chain.from_iterable(self.acknowledged))


class WriteBatch:
    """Buffer of placed (key, value) updates, flushed in batches.

    Use as a context manager; exit flushes::

        with WriteBatch(datastore) as batch:
            run = ds.create_run(1, batch=batch)
            event.store(product, batch=batch)
    """

    def __init__(self, datastore, flush_threshold: int = 0):
        self.datastore = datastore
        #: (kind, parent_key) -> pairs, resolved to a target at *flush*
        #: time so a long-lived batch stays correct across a live
        #: rescale epoch swap.
        self._placed: dict[tuple[str, bytes], list[tuple[bytes, bytes]]] = {}
        #: updates buffered since the last flush
        self.pending = 0
        self.flush_threshold = flush_threshold
        #: per-database ``put_multi`` transfers issued.
        self.flushes = 0
        self.items_written = 0
        #: pairs re-sent because their group's shard moved mid-flush.
        self.forwarded_writes = 0
        #: transfers that failed at least once and landed on a re-issue
        #: (by the client retry policy, or on the backup after failover).
        self.recovered_flushes = 0
        #: flushes issued and not yet retired; each is dropped as it
        #: retires, so this stays bounded by the genuinely in-flight
        #: flushes instead of growing across the batch's lifetime.
        self._issued: list[PendingStore] = []
        #: failures of retired flushes; :meth:`wait` raises the first.
        self._failures: list[BaseException] = []
        self._active = True

    def append_placed(self, kind: str, parent_key: bytes, key: bytes,
                      value: bytes) -> None:
        """Queue one update placed by (kind, parent) at flush time."""
        if not self._active:
            raise HEPnOSError("write batch already closed")
        self._placed.setdefault((kind, bytes(parent_key)), []).append(
            (key, value))
        self.pending += 1
        if self.flush_threshold and self.pending >= self.flush_threshold:
            self.flush()

    def append_run(self, parents, keys, values, containers=()) -> None:
        """Queue one run of products, ``keys[i]`` -> ``values[i]``
        placed by ``("products", parents[i])``, after the run's new
        ``containers`` (``((kind, parent_key), keys)`` entries stored
        with empty values).  The flush threshold is checked once, after
        the run."""
        if not self._active:
            raise HEPnOSError("write batch already closed")
        placed = self._placed
        for group, new in containers:
            placed.setdefault(group, []).extend(zip(new, repeat(b"")))
            self.pending += len(new)
        for parent, pair in zip(parents, zip(keys, values)):
            placed.setdefault(("products", parent), []).append(pair)
        self.pending += len(parents)
        if self.flush_threshold and self.pending >= self.flush_threshold:
            self.flush()

    def flush(self) -> None:
        """Send all buffered updates, one batched RPC per database, and
        wait for them to land."""
        self._issue(blocking=True)

    def _issue(self, blocking: bool) -> None:
        """Send the buffered updates.  The span covers the issue -- and,
        when ``blocking``, the wait as well."""
        # Opportunistic sweep: retire the flushes whose transfers have
        # all landed, so write-forwarding across an epoch swap happens
        # as each flush retires rather than only at wait().
        for issued in [i for i in self._issued if i.ready]:
            self._issued.remove(issued)
            self._retire(issued)
        if any(issued.smap is not self.datastore.placement
               for issued in self._issued):
            # A live rescale swapped the shard map under an in-flight
            # flush: drain synchronously so its pairs are forwarded
            # *now*, before the migration can commit and strand them on
            # a shard the migrator already scanned.
            self.wait()
        groups, self._placed = self._placed, {}
        pending, self.pending = self.pending, 0
        if not groups:
            return
        with _tracing.span("hepnos.write_batch.flush", items=pending,
                           asynchronous=not blocking) as sp:
            issued = PendingStore(self, groups)
            self._issued.append(issued)
            self.items_written += pending
            sp.set_tag("databases", len(issued.transfers))
            sp.set_tag("epoch", issued.smap.epoch)
            sp.set_tag("engine", self.datastore.async_engine is not None)
            if blocking:
                self.wait()

    def _retire(self, issued: PendingStore) -> None:
        try:
            issued.wait()
        except ReproError as exc:
            self._failures.append(exc)

    def wait(self) -> None:
        """Block until every issued flush has completed.

        Every in-flight flush is settled even if an early one failed
        (abandoning the rest would silently lose data); a transfer that
        failed retryably has already been re-issued under the client
        retry policy by then.  The first unrecovered failure is
        re-raised once everything has settled (including failures swept
        up by an intervening :meth:`flush`).
        """
        inflight, self._issued = self._issued, []
        if not inflight and not self._failures:
            return
        with _tracing.span("hepnos.write_batch.wait",
                           inflight=len(inflight)) as sp:
            for issued in inflight:
                self._retire(issued)
            sp.set_tag("recovered", self.recovered_flushes)
            failures, self._failures = self._failures, []
            if failures:
                sp.set_tag("failed", len(failures))
                raise failures[0]

    def close(self) -> None:
        if self._active:
            self.flush()
            self.wait()
            self._active = False

    def __enter__(self) -> "WriteBatch":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self._active = False  # don't flush partial state on error


class AsynchronousWriteBatch(WriteBatch):
    """The same batch, waiting later: each flush issues the per-database
    batched RPCs without waiting; :meth:`wait` (or context exit) blocks
    until every outstanding update has completed and re-raises the first
    failure."""

    def __init__(self, datastore, flush_threshold: int = 1024):
        if flush_threshold <= 0:
            raise HEPnOSError("async batches need a positive flush threshold")
        super().__init__(datastore, flush_threshold=flush_threshold)

    def flush(self) -> None:
        """Send all buffered updates in the background."""
        self._issue(blocking=False)
