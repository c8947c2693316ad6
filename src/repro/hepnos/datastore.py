"""The DataStore: a client's entry point into a HEPnOS service."""

from __future__ import annotations

import itertools
import threading
import time
from typing import Iterator, Optional

from repro.errors import (
    AddressError,
    ContainerNotFound,
    HEPnOSError,
    KeyNotFound,
    ProductNotFound,
    RPCTimeout,
    ShardMapStale,
)
from repro.faults.retry import RETRYABLE_ERRORS, RetryPolicy, default_client_policy
from repro.hepnos import keys
from repro.hepnos.column_block import ColumnBlock
from repro.hepnos.connection import ConnectionInfo, DbTarget, connection_from_servers
from repro.hepnos.load_plan import LoadPlan, PendingLoad
from repro.hepnos.options import ProductCacheOptions, QuotaOptions
from repro.hepnos.placement import ShardMap
from repro.hepnos.product import product_type_name
from repro.hepnos.product_cache import ProductCache
from repro.hepnos.write_batch import forward_moved
from repro.mercury import Engine, Fabric
from repro.monitor import tracing as _tracing
from repro.monitor.metrics import MetricRegistry
from repro.serial import dumps, loads
from repro.yokan import DatabaseHandle, YokanClient

_client_counter = itertools.count()


class _FailoverRetry(HEPnOSError):
    """Internal marker: a read failed over to a backup; re-run the op.

    Raised inside :meth:`DataStore._with_shard_retry` after a shard's
    backup was promoted, so the shard-retry loop re-issues the
    operation against the redirected handle.  Never escapes the
    datastore.
    """


class DataStore:
    """Client-side handle to the whole HEPnOS service.

    Obtain one with :meth:`connect`, then navigate with
    ``datastore["path/to/dataset"]`` exactly as in the paper's
    Listing 1.

    Retry behaviour resolves in priority order: an explicit
    ``retry_policy`` argument, then the connection's ``client.retry``
    section, then :func:`~repro.faults.default_client_policy`.  Each
    datastore owns its ``metrics`` registry (client retry/giveup
    counters, shard epoch, cache and failover counts).
    """

    def __init__(self, fabric: Fabric, connection: ConnectionInfo,
                 retry_policy: Optional[RetryPolicy] = None,
                 async_engine=None,
                 product_cache: Optional[ProductCacheOptions] = None,
                 quota: Optional[QuotaOptions] = None):
        self.fabric = fabric
        self.connection = connection
        client_address = f"sm://hepnos-client/{next(_client_counter)}"
        self.engine = Engine(fabric, client_address)
        if retry_policy is None:
            retry_policy = connection.retry_policy()
        if retry_policy is None:
            retry_policy = default_client_policy()
        self.metrics = MetricRegistry(f"datastore:{client_address}")
        #: tenant identity every RPC of this datastore is accounted
        #: under; ``None`` sends untagged traffic (no admission control).
        self.quota = quota
        tenant = quota.envelope() if quota is not None else None
        self._client = YokanClient(self.engine, retry_policy=retry_policy,
                                   metrics=self.metrics, tenant=tenant)
        #: the versioned shard map every lookup goes through, at epoch 0
        self.placement = ShardMap(connection)
        self.metrics.gauge(
            "hepnos.shard.epoch",
            help="current shard map epoch of this client",
        ).set(self.placement.epoch)
        #: retries operations that observed a shard map epoch swap
        #: mid-flight; separate from the transport policy because the
        #: stale window is bounded by the rescaler, not the network.
        self._stale_retry = RetryPolicy(
            max_attempts=6, base_delay=0.001, max_delay=0.05,
            retry_on=(ShardMapStale, _FailoverRetry),
        )
        #: failed primary -> promoted backup read/write redirects,
        #: populated when an operation exhausts its transport retries
        #: against an unreachable shard and cleared by :meth:`rejoin`.
        self._failover: dict[DbTarget, DbTarget] = {}
        self._failover_lock = threading.Lock()
        self._handles: dict[DbTarget, DatabaseHandle] = {}
        self._uuid_cache: dict[str, bytes] = {}
        #: bounded LRU over serialized product bytes (products are
        #: immutable once written, so no invalidation is ever needed).
        #: ``None`` when disabled -- the load paths then take the exact
        #: pre-cache code path, so disabled overhead is one ``is None``.
        self.product_cache_options = (
            product_cache if product_cache is not None
            else ProductCacheOptions()
        )
        self._product_cache: Optional[ProductCache] = None
        if self.product_cache_options.enabled:
            self._product_cache = ProductCache(
                self.product_cache_options.max_bytes,
                self.product_cache_options.max_entries,
                metrics=self.metrics,
            )
        #: per load lane: EMA of wire bytes per container (size hints).
        self._load_bytes_ema: dict[str, float] = {}
        #: optional AsyncEngine pipelining this client's I/O: the one
        #: engine every load, flush, Prefetcher and PEP of this
        #: datastore goes through.
        self.async_engine = None
        if async_engine is not None:
            async_engine.attach(self)

    @classmethod
    def connect(cls, fabric: Fabric, connection,
                retry_policy: Optional[RetryPolicy] = None,
                async_engine=None,
                product_cache: Optional[ProductCacheOptions] = None,
                quota: Optional[QuotaOptions] = None
                ) -> "DataStore":
        """Connect using a :class:`ConnectionInfo`, JSON text, or a list
        of deployed :class:`~repro.bedrock.BedrockServer` objects.

        The client's own fabric address is derived, one fresh
        ``sm://hepnos-client/<n>`` per datastore."""
        if isinstance(connection, ConnectionInfo):
            info = connection
        elif isinstance(connection, (str, dict)):
            info = ConnectionInfo.from_json(connection)
        else:
            info = connection_from_servers(connection)
        return cls(fabric, info, retry_policy=retry_policy,
                   async_engine=async_engine, product_cache=product_cache,
                   quota=quota)

    @property
    def retry_policy(self) -> RetryPolicy:
        return self._client.retry_policy

    @retry_policy.setter
    def retry_policy(self, policy: RetryPolicy) -> None:
        self._client.retry_policy = policy

    # -- database access ------------------------------------------------------

    def _handle(self, target: DbTarget) -> DatabaseHandle:
        if self._failover:
            redirected = self._failover.get(target)
            if redirected is not None:
                self.metrics.counter(
                    "hepnos.failover.redirected_ops",
                    help="operations served by a promoted backup",
                ).inc()
                target = redirected
        handle = self._handles.get(target)
        if handle is None:
            handle = self._client.database_handle(
                target.address, target.provider_id, target.name
            )
            self._handles[target] = handle
        return handle

    def _direct_handle(self, target: DbTarget) -> DatabaseHandle:
        """A handle that ignores failover redirects (re-sync plumbing)."""
        return self._client.database_handle(
            target.address, target.provider_id, target.name
        )

    def _db(self, kind: str, parent_key: bytes) -> DatabaseHandle:
        return self._handle(self.placement.database_for(kind, parent_key))

    def target_for(self, kind: str, parent_key: bytes) -> DbTarget:
        return self.placement.database_for(kind, parent_key)

    def handle_for_target(self, target: DbTarget) -> DatabaseHandle:
        return self._handle(target)

    # -- shard map plumbing ----------------------------------------------

    def _with_shard_retry(self, fn):
        """Run ``fn``, retrying on epoch swaps *and* replica failover.

        A :class:`ShardMapStale` re-runs under the new map.  A transport
        giveup (``AddressError``/``RPCTimeout`` after the client policy
        exhausted its budget) against a shard that has a backup promotes
        the backup (see :meth:`_activate_failover`) and re-runs the
        operation with reads redirected there; without a backup the
        giveup propagates unchanged.
        """

        def attempt():
            try:
                return fn()
            except (AddressError, RPCTimeout) as exc:
                if not self._activate_failover(exc):
                    raise
                raise _FailoverRetry(
                    f"failed over after {type(exc).__name__}: {exc}"
                ) from exc

        return self._stale_retry.call(
            attempt,
            on_retry=lambda n, exc, pause: self.metrics.counter(
                "hepnos.shard.stale_retries",
                help="operations re-run after an epoch swap or failover",
            ).inc(),
        )

    # -- replica failover -------------------------------------------------

    def _activate_failover(self, exc: BaseException) -> bool:
        """Promote the backup of the shard ``exc`` gave up against.

        The failed target is read off the exception (stamped by the
        database handle at giveup).  Returns ``True`` when a redirect
        was installed (or already covered the target), ``False`` when
        no backup exists -- replication off, unknown target, or the
        backup itself already failed.
        """
        address = getattr(exc, "failed_address", None)
        db_name = getattr(exc, "failed_db", None)
        if address is None or db_name is None:
            return False
        target = DbTarget(address=address,
                          provider_id=getattr(exc, "failed_provider_id", 0),
                          name=db_name)
        kind = db_name.rsplit("-", 1)[0]
        with self._failover_lock:
            if self._failover.get(target) is not None:
                # Already redirected; the giveup raced another thread's
                # activation, so the re-run will use the backup.
                return True
            backup = self.placement.backup_for(kind, target)
            if (backup is None or backup == target
                    or self._failover.get(backup) is not None):
                return False
            self._failover[target] = backup
            self._handles.pop(target, None)
        self.metrics.counter(
            "hepnos.failover.activated",
            help="primaries replaced by their backup after a giveup",
        ).inc()
        with _tracing.span("hepnos.failover.activate", kind=kind,
                           shard=self.placement.shard_id(kind, target),
                           replica=self.placement.shard_id(kind, backup),
                           db=db_name, error=type(exc).__name__):
            pass
        return True

    @property
    def failed_over(self) -> dict[DbTarget, DbTarget]:
        """Current primary -> backup redirects (empty when healthy)."""
        return dict(self._failover)

    def rejoin(self, address: Optional[str] = None, timeout: float = 10.0,
               poll: float = 0.01, resync: bool = True) -> int:
        """Re-admit restarted primaries and re-sync their state.

        Waits for the rejoining address(es) to answer, then runs
        anti-entropy catch-up in both directions: every database at a
        rejoining address pulls what it is missing from its backup
        (covers state lost in the crash *and* writes served by the
        backup during the failover window), and every database whose
        *backup* lives at a rejoining address pushes what that backup
        missed while it was down.  Finally the failover redirects for
        those addresses are dropped.  Returns the number of keys
        re-synced.
        """
        from repro.hepnos.failover import resync_missing

        if address is not None:
            addresses = {str(address)}
        else:
            with self._failover_lock:
                addresses = {t.address for t in self._failover}
        if not addresses:
            return 0
        self._await_addresses(sorted(addresses), timeout, poll)
        copied = 0
        with _tracing.span("hepnos.failover.rejoin",
                           addresses=len(addresses)):
            if resync:
                for kind in self.connection.targets:
                    for target in self.connection[kind]:
                        backup = self.placement.backup_for(kind, target)
                        if backup is None:
                            continue
                        if target.address in addresses:
                            # Recovering primary catches up from its backup.
                            copied += resync_missing(
                                self._direct_handle(backup),
                                self._direct_handle(target))
                        elif backup.address in addresses:
                            # Recovering backup re-learns what it missed.
                            copied += resync_missing(
                                self._direct_handle(target),
                                self._direct_handle(backup))
        with self._failover_lock:
            for target in list(self._failover):
                if target.address in addresses:
                    del self._failover[target]
        self._handles.clear()
        self.metrics.counter(
            "hepnos.failover.rejoined",
            help="primaries re-admitted after restart",
        ).inc()
        if copied:
            self.metrics.counter(
                "hepnos.failover.resynced_keys",
                help="keys copied by anti-entropy catch-up",
            ).inc(copied)
        return copied

    def _await_addresses(self, addresses, timeout: float,
                         poll: float) -> None:
        """Block until every address answers a probe (or raise)."""
        endpoints = sorted({
            (t.address, t.provider_id)
            for targets in self.connection.targets.values()
            for t in targets
            if t.address in addresses
        })
        probe = RetryPolicy.none()
        deadline = time.monotonic() + timeout
        for address, provider_id in endpoints:
            while True:
                try:
                    probe_client = YokanClient(self.engine,
                                               retry_policy=probe)
                    probe_client.list_databases(address, provider_id)
                    break
                except RETRYABLE_ERRORS:
                    if time.monotonic() >= deadline:
                        raise HEPnOSError(
                            f"service at {address} (provider {provider_id}) "
                            f"did not come back within {timeout:.1f}s"
                        ) from None
                    time.sleep(poll)

    def sync_service(self, checkpoint: bool = False,
                     tolerate_failures: bool = True) -> int:
        """Broadcast ``yokan.sync``: drain replica links, flush WALs.

        Returns the number of providers that acknowledged.  Unreachable
        providers are skipped when ``tolerate_failures`` (a crashed
        server mid-rescale must not wedge the epoch swap).
        """
        endpoints = {
            (t.address, t.provider_id)
            for targets in self.connection.targets.values()
            for t in targets
        }
        previous = self.placement.previous_connection
        if previous is not None:
            endpoints |= {
                (t.address, t.provider_id)
                for targets in previous.targets.values()
                for t in targets
            }
        acked = 0
        for address, provider_id in sorted(endpoints):
            try:
                self._client.sync(address, provider_id,
                                  checkpoint=checkpoint)
                acked += 1
            except RETRYABLE_ERRORS:
                if not tolerate_failures:
                    raise
        return acked

    def _dual_handles(self, smap: ShardMap, kind: str,
                      parent_key: bytes) -> Iterator[DatabaseHandle]:
        """The databases a dual-read consults, in order: the current
        shard, then -- only while migrating -- the pre-migration shard
        and the current one *again*.

        A concurrent migration step may copy a key to the current shard
        and erase it from the old one between the first two reads.
        Copy-before-erase guarantees that at every instant at least one
        of the two locations holds the key, so a final re-read of the
        current shard closes the window: a key none of the three reads
        found really is absent (under ``smap``; callers re-check that
        the map did not advance meanwhile).
        """
        yield self._db(kind, parent_key)
        prev = smap.previous_database_for(kind, parent_key)
        if prev is not None:
            yield self._handle(prev)
            yield self._db(kind, parent_key)

    def _get(self, kind: str, parent_key: bytes,
             key: bytes) -> Optional[bytes]:
        """Single dual-read ``get`` under the shard retry (``None`` =
        absent)."""

        def attempt():
            smap = self.placement
            for handle in self._dual_handles(smap, kind, parent_key):
                try:
                    return handle.get(key)
                except KeyNotFound:
                    pass
            if self.placement is not smap:
                raise ShardMapStale(
                    f"shard map advanced to epoch {self.placement.epoch} "
                    f"during a {kind} read"
                )
            return None

        return self._with_shard_retry(attempt)

    def _put_forwarded(self, kind: str, parent_key: bytes, key: bytes,
                       value: bytes) -> None:
        """Single put with write-forwarding across an epoch swap.

        The pair travels inline (``yokan.put``); whether its group moved
        while it was on the wire is :func:`forward_moved`'s rule, shared
        with the batched path.

        Runs under :meth:`_with_shard_retry`, so a giveup against a
        dead primary promotes its backup and re-sends there -- writes
        fail over exactly like reads (puts are idempotent, and the
        rejoin re-sync later pushes the backup-absorbed writes back).
        """

        def attempt():
            smap = self.placement
            target = smap.database_for(kind, parent_key)
            self._handle(target).put(key, value)
            if self.placement is not smap:
                group = (kind, parent_key)
                forward_moved(self, smap, {group: target},
                              {group: [(key, value)]})

        self._with_shard_retry(attempt)

    def begin_migration(self, connection: ConnectionInfo) -> int:
        """Enter a migration epoch targeting ``connection``.

        Placement resolves to the new layout immediately (writes are
        forwarded there); reads that miss fall back to the previous
        epoch's shard until :meth:`commit_migration` (dual-read).
        Normally called by :class:`repro.rescale.LiveRescaler`.
        """
        smap = self.placement.advance(connection)
        self.connection = connection
        self.placement = smap
        self.metrics.gauge("hepnos.shard.epoch").set(smap.epoch)
        with _tracing.span("hepnos.shard.begin_migration", epoch=smap.epoch,
                           shards=len(connection["events"])):
            pass
        return smap.epoch

    def commit_migration(self) -> int:
        """Leave the migration epoch: drop the dual-read fallback.

        Before settling, every reachable provider of the old and new
        layouts is asked to sync: replica links drain and durable
        backends flush, so the epoch swap never leaves acknowledged
        writes only in a forwarding queue.
        """
        self.sync_service(checkpoint=False)
        smap = self.placement.settle()
        self.placement = smap
        self._handles.clear()
        self.metrics.gauge("hepnos.shard.epoch").set(smap.epoch)
        with _tracing.span("hepnos.shard.commit_migration", epoch=smap.epoch):
            pass
        return smap.epoch

    # -- datasets ---------------------------------------------------------

    def create_dataset(self, path: str) -> "DataSet":
        """Create a dataset (and any missing ancestors); idempotent."""
        from repro.hepnos.containers import DataSet

        path = keys.normalize_path(path)
        parts = path.split("/")
        current = ""
        uuid = b""
        for part in parts:
            child = f"{current}/{part}" if current else part
            uuid = self._get_or_create_dataset_entry(current, child)
            current = child
        return DataSet(self, path, uuid)

    def _get_or_create_dataset_entry(self, parent: str, path: str) -> bytes:
        cached = self._uuid_cache.get(path)
        if cached is not None:
            return cached
        parent_key = parent.encode("utf-8")
        key = keys.dataset_key(path)
        uuid = self._get("datasets", parent_key, key)
        if uuid is None:
            # Deterministic identity: concurrent creators of the same
            # path write the same value, so no atomicity needed.
            uuid = keys.new_dataset_uuid(path)
            self._put_forwarded("datasets", parent_key, key, uuid)
        self._uuid_cache[path] = uuid
        return uuid

    def dataset_uuid(self, path: str) -> bytes:
        """Resolve a dataset path to its UUID (raises if absent)."""
        path = keys.normalize_path(path)
        cached = self._uuid_cache.get(path)
        if cached is not None:
            return cached
        uuid = self._get("datasets", keys.parent_path(path).encode("utf-8"),
                         keys.dataset_key(path))
        if uuid is None:
            raise ContainerNotFound(f"no dataset {path!r}")
        self._uuid_cache[path] = uuid
        return uuid

    def exists_dataset(self, path: str) -> bool:
        try:
            self.dataset_uuid(path)
            return True
        except ContainerNotFound:
            return False

    def __getitem__(self, path: str) -> "DataSet":
        from repro.hepnos.containers import DataSet

        path = keys.normalize_path(path)
        return DataSet(self, path, self.dataset_uuid(path))

    def __contains__(self, path: str) -> bool:
        return self.exists_dataset(path)

    def datasets(self) -> Iterator["DataSet"]:
        """Iterate the root-level datasets."""
        return self.child_datasets("")

    def child_datasets(self, parent: str) -> Iterator["DataSet"]:
        """Iterate the datasets directly inside ``parent`` ('' = root)."""
        from repro.hepnos.containers import DataSet

        if parent:
            parent = keys.normalize_path(parent)
        parent_key = parent.encode("utf-8")
        prefix = (parent + "/").encode("utf-8") if parent else b""
        handles = list(self._dual_handles(self.placement, "datasets",
                                          parent_key))
        if len(handles) == 1:
            entries = handles[0].iter_keys(prefix=prefix)
        else:
            # Dual-read: merge the pre-migration shard's entries
            # (dataset directories are small, no paging needed).
            entries = sorted(set().union(
                *(handle.list_keys(prefix=prefix) for handle in handles)))
        for key in entries:
            path = key.decode("utf-8")
            tail = path[len(parent) + 1 :] if parent else path
            if "/" in tail:
                # A deeper descendant that happens to share this database.
                continue
            yield DataSet(self, path, self.dataset_uuid(path))

    # -- numbered containers ------------------------------------------------

    def create_container(self, kind: str, parent_key: bytes, key: bytes,
                         batch=None) -> None:
        """Insert a container key (empty value: presence == existence)."""
        if batch is not None:
            batch.append_placed(kind, parent_key, key, b"")
        else:
            self._put_forwarded(kind, parent_key, key, b"")

    def container_exists(self, kind: str, parent_key: bytes, key: bytes) -> bool:
        return self._exists(kind, parent_key, key)

    def _exists(self, kind: str, parent_key: bytes, key: bytes) -> bool:
        """Dual-read existence check of ``key`` among ``parent_key``'s
        children (``kind`` names the placement: a container kind, or
        ``"products"`` with the container key as parent)."""

        def attempt():
            smap = self.placement
            if any(handle.exists(key) for handle in
                   self._dual_handles(smap, kind, parent_key)):
                return True
            if self.placement is not smap:
                raise ShardMapStale(
                    f"shard map advanced to epoch {self.placement.epoch} "
                    f"during a {kind} existence check"
                )
            return False

        return self._with_shard_retry(attempt)

    def list_child_keys(self, kind: str, parent_key: bytes,
                        start_after: bytes = b"", limit: int = 0,
                        page: int = 4096) -> Iterator[bytes]:
        """Ordered child keys of ``parent_key``.

        Normally served by one database (all children of a parent
        colocate); while a migration is in flight, each page merges the
        old and new shards so children split across them are not missed.
        A page shorter than asked for is the last: a shard holding more
        would have filled it, so every shard the page merged ran dry.
        """
        produced = 0
        cursor = start_after
        while True:
            want = page if not limit else min(page, limit - produced)
            keys_page = self._with_shard_retry(
                lambda: self._list_page(kind, parent_key, cursor, want))
            for key in keys_page:
                yield key
                produced += 1
                if limit and produced >= limit:
                    return
            if len(keys_page) < want:
                return
            cursor = keys_page[-1]

    def _list_page(self, kind: str, parent_key: bytes, cursor: bytes,
                   want: int) -> list[bytes]:
        """One dual-read listing page, checked against epoch swaps."""
        smap = self.placement
        pages = [handle.list_keys(prefix=parent_key, start_after=cursor,
                                  limit=want)
                 for handle in self._dual_handles(smap, kind, parent_key)]
        merged = pages[0]
        if len(pages) > 1:
            merged = sorted(set().union(*pages))[:want]
        if self.placement is not smap:
            raise ShardMapStale(
                f"shard map advanced to epoch {self.placement.epoch} "
                f"during a {kind} listing page"
            )
        return merged

    # -- products ---------------------------------------------------------

    def store_product(self, container_key: bytes, obj, label: str = "",
                      type_name=None, batch=None) -> bytes:
        """Serialize and store a product; returns its database key."""
        with _tracing.span("hepnos.store_product", label=label) as sp:
            tname = product_type_name(
                type_name if type_name is not None else obj
            )
            return self._store_value(sp, container_key, label, tname,
                                     dumps(obj), batch)

    def store_encoded_products(self, container_keys, type_name, values,
                               label: str = "", *, batch,
                               containers=()) -> None:
        """Queue one run of products whose archive bytes the caller
        already holds: ``values[i]`` under ``container_keys[i]``.

        Each value must be an archive value ``loads`` turns into the
        product (the loader's typed tables, written without building
        the objects).  The key suffix is validated once, and the run --
        after the new ``containers`` it needs, as
        :meth:`WriteBatch.append_run` takes them -- reaches ``batch`` in
        one call.
        """
        tname = product_type_name(type_name)
        suffix = keys.product_key(b"", label, tname)
        with _tracing.span("hepnos.store_products", label=label, type=tname,
                           count=len(container_keys)) as sp:
            if _tracing.enabled:
                smap = self.placement
                sp.set_tag("epoch", smap.epoch)
                sp.set_tag("shards", sorted(
                    smap.shard_id("products", target) for target in
                    set(smap.product_database_for_many(container_keys))))
            batch.append_run(container_keys,
                             [(key + suffix, value) for key, value
                              in zip(container_keys, values)], containers)

    def _store_value(self, sp, container_key: bytes, label: str, tname: str,
                     value: bytes, batch) -> bytes:
        key = keys.product_key(container_key, label, tname)
        if _tracing.enabled:
            smap = self.placement
            sp.set_tag("type", tname)
            sp.set_tag("bytes", len(value))
            sp.set_tag("batched", batch is not None)
            sp.set_tag("epoch", smap.epoch)
            sp.set_tag("shard", smap.shard_id(
                "products", smap.product_database_for(container_key)))
        if batch is not None:
            # The flush drops the key from the cache once acknowledged.
            batch.append_placed("products", container_key, key, value)
        else:
            self._put_forwarded("products", container_key, key, value)
            # Write-through: the bytes in hand are exactly what a
            # later load would fetch (products are immutable).  An
            # overwrite must also drop any projected columns.
            if self._product_cache is not None:
                self._product_cache.invalidate(key)
                self._product_cache.put(key, value)
        return key

    def load_product(self, container_key: bytes, product_type, label: str = ""):
        """Load one product; raises :class:`ProductNotFound` if absent."""
        tname = product_type_name(product_type)
        key = keys.product_key(container_key, label, tname)
        cache = self._product_cache
        with _tracing.span("hepnos.load_product", label=label,
                           type=tname) as sp:
            if cache is not None:
                cached = cache.get(key)
                if cached is not None:
                    sp.set_tag("cache", "hit")
                    return loads(cached)
                sp.set_tag("cache", "miss")
            if _tracing.enabled:
                smap0 = self.placement
                sp.set_tag("epoch", smap0.epoch)
                sp.set_tag("shard", smap0.shard_id(
                    "products", smap0.product_database_for(container_key)))

            value = self._get("products", container_key, key)
            if value is None:
                raise ProductNotFound(
                    f"no product label={label!r} type={tname!r} "
                    f"in container"
                )
            if cache is not None:
                cache.put(key, value)
        return loads(value)

    def issue_load(self, plan: LoadPlan) -> PendingLoad:
        """Issue ``plan`` without blocking; retire it with ``.wait()``.

        One request per involved database goes out at once -- through
        the attached :class:`AsyncEngine`'s bounded window when there
        is one -- so the caller can overlap the load with its own work.
        """
        return PendingLoad(self, plan)

    def load_products(self, plan: LoadPlan):
        """Run ``plan`` to completion (issue + wait) and return its
        answer: ``{(type_name, label): [obj or None, ...]}`` aligned
        with the plan's container keys, or a :class:`ColumnBlock` for a
        column projection."""
        return PendingLoad(self, plan, blocking=True).lane.result

    def load_products_packed(self, container_keys, specs):
        """Load several ``(product_type, label)`` specs of many
        containers: one ``get_multi`` of exactly their product keys per
        database, as :meth:`load_products` does.

        Returns ``{(type_name, label): [obj or None, ...]}``, each list
        aligned with ``container_keys``.
        """
        return self.load_products(LoadPlan(container_keys, specs))

    def load_products_columnar(self, container_keys, product_type, fields,
                               label: str = "") -> ColumnBlock:
        """Project ``fields`` of one product spec across many containers
        (one ``scan_columns`` per database) into a single
        :class:`~repro.hepnos.column_block.ColumnBlock` aligned with
        ``container_keys``."""
        return self.load_products(
            LoadPlan(container_keys, [(product_type, label)], columns=fields))

    def product_exists(self, container_key: bytes, product_type,
                       label: str = "") -> bool:
        key = keys.product_key(container_key, label,
                               product_type_name(product_type))
        return self._exists("products", container_key, key)

    # -- misc ---------------------------------------------------------------

    def reconnect(self, timeout: float = 10.0, poll: float = 0.01) -> None:
        """Re-establish contact after a provider crash/restart.

        Drops cached database handles and probes every distinct service
        endpoint until it answers (or ``timeout`` elapses).  Safe to
        call even when nothing crashed -- a healthy service answers the
        probes immediately.
        """
        self._handles.clear()
        addresses = {t.address for targets in self.connection.targets.values()
                     for t in targets}
        with _tracing.span("hepnos.reconnect", addresses=len(addresses)):
            self._await_addresses(addresses, timeout, poll)

    def shutdown(self) -> None:
        """Finalize the client engine.

        With an attached :class:`AsyncEngine`, its window is
        drained first so no in-flight non-blocking operation is
        abandoned mid-wire (failures surface here rather than being
        silently dropped).
        """
        if self.async_engine is not None:
            self.async_engine.drain(raise_errors=True)
        self.engine.finalize()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        counts = self.connection.counts()
        return f"DataStore({counts})"
