"""The Yokan provider: serves key-value databases over Mercury RPCs.

One provider manages any number of named databases and is addressed by
``(engine address, provider_id)``.  Small operations travel inline in
RPC payloads; batched operations (``put_multi``, ``get_multi``) move
their data with RDMA-style bulk transfers, matching the paper's
"RPC for single small objects, RDMA for large objects or batches".
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from typing import Optional

from repro.argobots import Pool, ult_yield
from repro.errors import (
    CorruptionError,
    KeyNotFound,
    ReproError,
    ServiceBusy,
    YokanError,
)
from repro.mercury import Bulk, BulkOp, Engine, RPCRequest
from repro.monitor import tracing as _tracing
from repro.serial import dumps, loads
from repro.serial import columnar as _columnar
from repro.yokan import packed, wire
from repro.yokan.backend import Backend, open_backend

#: RPC names served by every Yokan provider.
RPC_NAMES = (
    "yokan.put",
    "yokan.put_multi",
    "yokan.get",
    "yokan.get_multi",
    "yokan.load_prefix_packed",
    "yokan.scan_columns",
    "yokan.exists",
    "yokan.erase",
    "yokan.erase_multi",
    "yokan.length",
    "yokan.list_keys",
    "yokan.list_keyvals",
    "yokan.count_prefix",
    "yokan.list_databases",
    "yokan.create_database",
    "yokan.replicate",
    "yokan.sync",
)


#: what a handler converts into a wire error response: the service's
#: own exception hierarchy plus malformed-payload decode errors.
#: Anything else (a genuine server bug) propagates and fails the RPC.
_HANDLED_ERRORS = (ReproError, ValueError, TypeError, KeyError)


def _ok(value=None) -> bytes:
    return dumps(("ok", value))


def _err(exc: BaseException) -> bytes:
    kind = "KeyNotFound" if isinstance(exc, KeyNotFound) else type(exc).__name__
    # 429-style sheds carry their server-supplied backoff hint as a
    # fourth element; older decoders index only the first three.
    retry_after = getattr(exc, "retry_after_s", None)
    if retry_after is not None:
        return dumps(("err", kind, str(exc), float(retry_after)))
    return dumps(("err", kind, str(exc)))


class ReplicaLink:
    """Asynchronous write forwarding from a primary database to its backup.

    Acknowledged mutations are re-sent as ``yokan.replicate`` RPCs
    (which apply without re-forwarding, so replication can never loop).
    Forwards are non-blocking with a bounded lag window: up to
    ``window`` replicate futures may be in flight before the oldest is
    retired, mirroring the :class:`~repro.hepnos.AsyncEngine`
    submit/pump discipline.  A forward that exhausts its retry budget
    (backup down) is dropped and counted -- the anti-entropy re-sync on
    rejoin repairs the gap.
    """

    def __init__(self, handle, window: int = 8):
        self.handle = handle
        self.window = max(1, int(window))
        self._inflight: "deque" = deque()
        self._lock = threading.Lock()
        self.forwarded = 0
        self.failed = 0
        self.flushes = 0

    def _reap(self, future) -> None:
        try:
            future.wait()
        except ReproError:
            self.failed += 1

    def _submit(self, future) -> None:
        stale = []
        with self._lock:
            self._inflight.append(future)
            while len(self._inflight) > self.window:
                stale.append(self._inflight.popleft())
        for old in stale:
            self._reap(old)

    def forward(self, pairs, erase_keys=()) -> None:
        """Queue one replicate RPC mirroring an acknowledged mutation."""
        self.forwarded += 1
        self._submit(self.handle.replicate_nb(pairs, erase_keys))

    def flush(self) -> int:
        """Retire every in-flight forward; returns how many were waited."""
        with self._lock:
            stale = list(self._inflight)
            self._inflight.clear()
        for future in stale:
            self._reap(future)
        self.flushes += 1
        return len(stale)

    @property
    def lag(self) -> int:
        return len(self._inflight)


class YokanProvider:
    """Server-side provider bound to one engine + provider id."""

    #: default bound on the server-side projection cache (bytes).
    COLUMN_CACHE_BYTES = 64 * 1024 * 1024
    #: default bound on cached, already-packed scan_columns pages.
    PAGE_CACHE_BYTES = 16 * 1024 * 1024

    def __init__(self, engine: Engine, provider_id: int = 0,
                 pool: Optional[Pool] = None,
                 databases: Optional[dict[str, Backend]] = None,
                 column_cache_bytes: Optional[int] = None,
                 broker=None):
        self.engine = engine
        self.provider_id = provider_id
        self.pool = pool if pool is not None else engine.pool
        #: optional :class:`repro.broker.RequestBroker` interposing
        #: admission control + fair-share on tenant-tagged requests.
        self.broker = broker
        self.databases: dict[str, Backend] = dict(databases or {})
        # Server-side projection cache for row-encoded values (typed
        # tables project from their stored bytes): (db name, key) ->
        # decoded column table (or None for values no column plan
        # covers), so repeated scan_columns passes skip the per-object
        # decode.  Entries are invalidated on any put/erase of their
        # key and evicted LRU under a bytes bound.
        self._column_cache: OrderedDict = OrderedDict()
        self._column_cache_bytes = 0
        self._column_cache_max = (self.COLUMN_CACHE_BYTES
                                  if column_cache_bytes is None
                                  else column_cache_bytes)
        # Whole-page cache over identical scan_columns requests (an
        # analysis re-run projects the same prefixes/fields verbatim):
        # keyed by the full request, validated against a per-database
        # write generation so any put/erase drops every page of that
        # database at the cost of one integer compare.
        self._page_cache: OrderedDict = OrderedDict()
        self._page_cache_bytes = 0
        self._page_gen: dict[str, int] = {}
        self._column_lock = threading.Lock()
        #: db name -> ReplicaLink forwarding acknowledged writes.
        self._replicas: dict[str, ReplicaLink] = {}
        for rpc_name in RPC_NAMES:
            handler = getattr(self, "_rpc_" + rpc_name.split(".", 1)[1])
            wrapped = (self._brokered(rpc_name, handler)
                       if broker is not None
                       else self._traced(rpc_name, handler))
            engine.register(rpc_name, wrapped,
                            provider_id=provider_id, pool=self.pool)

    def _traced(self, rpc_name: str, handler):
        """Wrap a handler in a server-side span and the wire envelope.

        The span parents to the client span whose context arrived in
        the RPC payload header, so one trace covers both sides of the
        wire.  The request envelope is unsealed after the span opens
        (so corrupted requests still produce a provider span) and every
        response -- including error responses -- is sealed on the way
        out.  With no tracer installed the original handler runs
        directly (one attribute read of overhead).
        """
        op = rpc_name.split(".", 1)[1]
        provider_id = self.provider_id
        engine_address = str(self.engine.address)

        def serve(req: RPCRequest) -> bytes:
            try:
                # An unbrokered server still accepts (and ignores) the
                # tenant envelope, so tenant sessions work against any
                # deployment; the magic check is four byte compares.
                _meta, envelope = wire.unwrap_tenant(req.payload)
                req.payload = wire.unseal(envelope)
            except CorruptionError as exc:
                if req.trace_span is not None:
                    req.trace_span.set_tag("error", "CorruptionError")
                return wire.seal(_err(exc))
            return wire.seal(handler(req))

        def traced_handler(req: RPCRequest) -> bytes:
            if not _tracing.enabled:
                return serve(req)
            parent = req.trace_context
            if parent is None:
                parent = _tracing.NO_PARENT
            with _tracing.span(f"yokan.provider.{op}",
                               parent=parent,
                               provider=provider_id,
                               address=engine_address) as sp:
                req.trace_span = sp
                return serve(req)

        return traced_handler

    def _brokered(self, rpc_name: str, handler):
        """Wrap a handler in admission control + fair-share scheduling.

        The wrapper is a *generator* handler: after the broker admits a
        tenant-tagged request, the ULT cooperatively yields until the
        fair-share scheduler grants it a service slot, so queued
        requests occupy no execution stream.  Sheds happen before the
        payload is unsealed and travel back as sealed 429-style errors
        with their ``retry_after_s`` hint.  Untagged (system/legacy)
        traffic bypasses the broker entirely.
        """
        op = rpc_name.split(".", 1)[1]
        provider_id = self.provider_id
        engine_address = str(self.engine.address)

        def serve(req: RPCRequest):
            broker = self.broker
            try:
                meta, envelope = wire.unwrap_tenant(req.payload)
            except CorruptionError as exc:
                if req.trace_span is not None:
                    req.trace_span.set_tag("error", "CorruptionError")
                return wire.seal(_err(exc))
            if broker is None or meta is None or not meta.tenant:
                try:
                    req.payload = wire.unseal(envelope)
                except CorruptionError as exc:
                    if req.trace_span is not None:
                        req.trace_span.set_tag("error", "CorruptionError")
                    return wire.seal(_err(exc))
                return wire.seal(handler(req))
            try:
                admission = broker.admit(meta, op, len(envelope))
            except ServiceBusy as exc:
                if req.trace_span is not None:
                    req.trace_span.set_tag("error", type(exc).__name__)
                    req.trace_span.set_tag("tenant", meta.tenant)
                return wire.seal(_err(exc))
            if req.trace_span is not None:
                req.trace_span.set_tag("tenant", meta.tenant)
            response = None
            queued = 0.0
            try:
                while not admission.ticket.granted:
                    yield ult_yield()
                queued = broker.begin(admission)
                try:
                    req.payload = wire.unseal(envelope)
                    response = handler(req)
                except CorruptionError as exc:
                    if req.trace_span is not None:
                        req.trace_span.set_tag("error", "CorruptionError")
                    response = _err(exc)
                return wire.seal(response)
            finally:
                broker.finish(
                    admission,
                    response_bytes=len(response) if response is not None
                    else 0,
                    queued_s=queued)

        def brokered_handler(req: RPCRequest):
            if not _tracing.enabled:
                return (yield from serve(req))
            parent = req.trace_context
            if parent is None:
                parent = _tracing.NO_PARENT
            with _tracing.span(f"yokan.provider.{op}",
                               parent=parent,
                               provider=provider_id,
                               address=engine_address) as sp:
                req.trace_span = sp
                return (yield from serve(req))

        return brokered_handler

    # -- database management -----------------------------------------------

    def add_database(self, name: str, backend: Backend) -> None:
        if name in self.databases:
            raise YokanError(f"database {name!r} already exists")
        self.databases[name] = backend

    def _db(self, name: str) -> Backend:
        try:
            return self.databases[name]
        except KeyError:
            raise YokanError(f"no database named {name!r}") from None

    def close(self) -> None:
        for backend in self.databases.values():
            backend.close()

    # -- replication ---------------------------------------------------------

    def set_replica(self, db_name: str, handle, window: int = 8) -> None:
        """Forward acknowledged writes of ``db_name`` to ``handle``."""
        if db_name not in self.databases:
            raise YokanError(f"no database named {db_name!r}")
        self._replicas[db_name] = ReplicaLink(handle, window=window)

    def clear_replica(self, db_name: str) -> None:
        self._replicas.pop(db_name, None)

    def replica_links(self) -> dict[str, ReplicaLink]:
        return dict(self._replicas)

    def flush_replication(self) -> int:
        """Drain every replica link; returns futures waited on."""
        return sum(link.flush() for link in self._replicas.values())

    def _forward(self, name: str, pairs=(), erase_keys=()) -> None:
        link = self._replicas.get(name)
        if link is not None:
            link.forward(pairs, erase_keys)

    # -- RPC handlers --------------------------------------------------------
    # Each returns response bytes (the engine auto-responds).

    def _rpc_put(self, req: RPCRequest) -> bytes:
        try:
            name, key, value = loads(req.payload)
            if req.trace_span is not None:
                req.trace_span.set_tag("db", name)
            self._db(name).put(key, value)
            self._column_invalidate(name, key)
            self._forward(name, pairs=[(bytes(key), bytes(value))])
            return _ok()
        except _HANDLED_ERRORS as exc:
            return _err(exc)

    def _rpc_put_multi(self, req: RPCRequest) -> bytes:
        try:
            name, bulk, nbytes, crc = loads(req.payload)
            buffer = bytearray(nbytes)
            local = self.engine.expose(buffer, Bulk.READ_WRITE)
            req.bulk_transfer(BulkOp.PULL, bulk, local, size=nbytes)
            # The CRC rejects a corrupted bulk pull before anything is
            # stored; the pairs (one packed group, see the client's
            # frame_put_multi) decode in place, values as views of the
            # pulled buffer that the backend copies.
            wire.verify_bulk(buffer, crc, "put_multi bulk buffer")
            (pairs,) = packed.unpack_groups(buffer, 1)
            if req.trace_span is not None:
                req.trace_span.set_tag("db", name)
                req.trace_span.set_tag("keys", len(pairs))
            count = self._db(name).put_multi(pairs)
            for key, _value in pairs:
                self._column_invalidate(name, key)
            self._forward(name, pairs=pairs)
            return _ok(count)
        except _HANDLED_ERRORS as exc:
            return _err(exc)

    def _rpc_get(self, req: RPCRequest) -> bytes:
        try:
            decoded = loads(req.payload)
            # Newer clients send a max-inline size; values above it are
            # announced rather than shipped, so the client can fetch
            # them with a bulk transfer.
            if len(decoded) == 3:
                name, key, max_inline = decoded
            else:
                name, key = decoded
                max_inline = None
            if req.trace_span is not None:
                req.trace_span.set_tag("db", name)
            value = self._db(name).get(key)
            if max_inline is not None and len(value) > max_inline:
                return _ok(("large", len(value)))
            return _ok(value)
        except _HANDLED_ERRORS as exc:
            return _err(exc)

    def _rpc_get_multi(self, req: RPCRequest) -> bytes:
        try:
            name, keys, bulk, capacity = loads(req.payload)
            if req.trace_span is not None:
                req.trace_span.set_tag("db", name)
                req.trace_span.set_tag("keys", len(keys))
            values = self._db(name).get_multi(list(keys))
            packed = dumps(values)
            if len(packed) > capacity:
                # Client's landing buffer is too small; tell it how much
                # space the packed response needs so it can retry.
                return dumps(("retry", len(packed)))
            local = self.engine.expose(bytearray(packed), Bulk.READ_ONLY)
            req.bulk_transfer(BulkOp.PUSH, bulk, local, size=len(packed))
            # The client verifies its landing buffer against this CRC
            # before decoding, retrying the RPC on a corrupted push.
            return _ok((len(packed), wire.checksum(packed)))
        except _HANDLED_ERRORS as exc:
            return _err(exc)

    def _rpc_load_prefix_packed(self, req: RPCRequest) -> bytes:
        """Scan every requested prefix and push one packed buffer back.

        Where ``get_multi`` needs the client to already know each key,
        this serves *whole events*: one server-side ordered scan per
        prefix, all pairs length-prefix packed (:mod:`repro.yokan.packed`)
        and moved in a single RDMA push.  The response carries the group
        count, packed size, and CRC for client-side verification.
        """
        try:
            name, prefixes, bulk, capacity = loads(req.payload)
            db = self._db(name)
            groups = [list(db.scan_prefix(bytes(p))) for p in prefixes]
            buffer = packed.pack_groups(groups)
            if req.trace_span is not None:
                req.trace_span.set_tag("db", name)
                req.trace_span.set_tag("prefixes", len(groups))
                req.trace_span.set_tag("bytes", len(buffer))
            if len(buffer) > capacity:
                return dumps(("retry", len(buffer)))
            local = self.engine.expose(bytearray(buffer), Bulk.READ_ONLY)
            req.bulk_transfer(BulkOp.PUSH, bulk, local, size=len(buffer))
            return _ok((len(groups), len(buffer), wire.checksum(buffer)))
        except _HANDLED_ERRORS as exc:
            return _err(exc)

    # -- server-side columnar projection -------------------------------------

    def _column_invalidate(self, name: str, key: bytes) -> None:
        with self._column_lock:
            entry = self._column_cache.pop((name, bytes(key)), None)
            if entry is not None and entry[1] is not None:
                self._column_cache_bytes -= entry[0]
            self._page_gen[name] = self._page_gen.get(name, 0) + 1

    def _column_table(self, name: str, key: bytes, value):
        """The cached column table for ``(name, key)``, decoding on miss.

        Returns ``(count, columns)`` covering every field of the
        element class, or ``None`` when the value is not columnar
        (negative results are cached too, so raw values are not
        re-decoded on every pass).
        """
        cache_key = (name, key)
        with self._column_lock:
            entry = self._column_cache.get(cache_key)
            if entry is not None:
                self._column_cache.move_to_end(cache_key)
                return entry[1]
        table = _columnar.value_to_table(value)
        if table is None:
            nbytes, entry_val = 0, None
        else:
            _tname, count, columns = table
            entry_val = (count, columns)
            nbytes = _columnar.table_nbytes(columns)
        if nbytes > self._column_cache_max:
            return entry_val
        with self._column_lock:
            old = self._column_cache.pop(cache_key, None)
            if old is not None and old[1] is not None:
                self._column_cache_bytes -= old[0]
            self._column_cache[cache_key] = (nbytes, entry_val)
            self._column_cache_bytes += nbytes
            while self._column_cache_bytes > self._column_cache_max:
                _k, (evicted, val) = self._column_cache.popitem(last=False)
                if val is not None:
                    self._column_cache_bytes -= evicted
        return entry_val

    def _project(self, name: str, db: Backend, prefixes, suffix: bytes,
                 fields: list) -> tuple:
        """Per-prefix statuses and one wire block per field of a page.

        Typed table values (what ingest stores) are never decoded:
        consecutive ones of one layout have their record bytes joined
        and each requested field copied out of the join in one strided
        pass.  Row-encoded values go through the column-table cache.
        """
        statuses: list = []
        tables: list = []
        layout, known, run = None, False, []

        def close_run() -> None:
            if run:
                tables.append(_columnar.project_records(
                    layout, b"".join(run), fields))
                run.clear()

        # A value that cannot give every field travels row-wise (its
        # bytes are the status): the client then evaluates per object
        # and surfaces the same error the object path would.
        for p in prefixes:
            key = p + suffix
            try:
                value = db.get(key)
            except KeyNotFound:
                statuses.append(None)
                continue
            stored = _columnar.table_records(value)
            if stored is None:
                table = self._column_table(name, key, value)
                if table is None or any(f not in table[1] for f in fields):
                    statuses.append(value)
                    continue
                close_run()
                statuses.append(table[0])
                tables.append(table[1])
                continue
            if stored[0] is not layout:
                close_run()
                layout = stored[0]
                known = all(f in layout.fields for f in fields)
            if known:
                run.append(stored[1])
                statuses.append(len(stored[1]) // layout.dtype.itemsize)
            else:
                statuses.append(value)
        close_run()
        return statuses, [_columnar.pack_field_column(tables, f)
                          for f in fields]

    def _rpc_scan_columns(self, req: RPCRequest) -> bytes:
        """Materialize requested columns server-side; push one page back.

        The request names a database, a list of container-key prefixes,
        the product-key suffix (label + type name) and a field list.
        For every prefix whose product is a typed table, or decodes to
        a homogeneous list of planned products, only the requested
        columns travel; anything else travels row-wise in place (a
        per-prefix ``raw`` status) so the projection can never change
        what the client reconstructs.
        """
        try:
            name, blob, lens, suffix, fields, bulk, capacity = \
                loads(req.payload)
            db = self._db(name)
            suffix = bytes(suffix)
            fields = [str(f) for f in fields]
            # The prefix blob doubles as the page-cache token: a hit
            # never re-slices the individual keys.
            page_key = (name, suffix, bytes(blob), bytes(lens),
                        tuple(fields))
            with self._column_lock:
                gen = self._page_gen.get(name, 0)
                entry = self._page_cache.get(page_key)
                if entry is not None and entry[0] == gen:
                    self._page_cache.move_to_end(page_key)
                    nprefixes, buffer, crc = entry[1], entry[2], entry[3]
                else:
                    entry = None
            if entry is None:
                statuses, blocks = self._project(
                    name, db, packed.unpack_prefixes(blob, lens), suffix,
                    fields)
                buffer = packed.pack_column_page(statuses, blocks)
                nprefixes = len(statuses)
                crc = wire.checksum(buffer)
                # `gen` was read before the scan: a write racing the
                # build bumps it, so the entry is already stale and a
                # later pass rebuilds from the new bytes.
                nbytes = len(buffer) + len(blob) + len(lens) + 64
                if nbytes <= self.PAGE_CACHE_BYTES:
                    with self._column_lock:
                        old = self._page_cache.pop(page_key, None)
                        if old is not None:
                            self._page_cache_bytes -= old[4]
                        self._page_cache[page_key] = (
                            gen, nprefixes, buffer, crc, nbytes)
                        self._page_cache_bytes += nbytes
                        while self._page_cache_bytes > self.PAGE_CACHE_BYTES:
                            _k, dropped = self._page_cache.popitem(last=False)
                            self._page_cache_bytes -= dropped[4]
            if req.trace_span is not None:
                req.trace_span.set_tag("db", name)
                req.trace_span.set_tag("prefixes", nprefixes)
                req.trace_span.set_tag("fields", len(fields))
                req.trace_span.set_tag("bytes", len(buffer))
                req.trace_span.set_tag("page_cached", entry is not None)
            if len(buffer) > capacity:
                return dumps(("retry", len(buffer)))
            local = self.engine.expose(bytearray(buffer), Bulk.READ_ONLY)
            req.bulk_transfer(BulkOp.PUSH, bulk, local, size=len(buffer))
            return _ok((nprefixes, len(buffer), crc))
        except _HANDLED_ERRORS as exc:
            return _err(exc)

    def _rpc_exists(self, req: RPCRequest) -> bytes:
        try:
            name, key = loads(req.payload)
            return _ok(self._db(name).exists(key))
        except _HANDLED_ERRORS as exc:
            return _err(exc)

    def _rpc_erase(self, req: RPCRequest) -> bytes:
        try:
            name, key = loads(req.payload)
            self._db(name).erase(key)
            self._column_invalidate(name, key)
            self._forward(name, erase_keys=[bytes(key)])
            return _ok()
        except _HANDLED_ERRORS as exc:
            return _err(exc)

    def _rpc_erase_multi(self, req: RPCRequest) -> bytes:
        try:
            name, keys = loads(req.payload)
            keys = list(keys)
            erased = self._db(name).erase_multi(keys)
            for key in keys:
                self._column_invalidate(name, key)
            self._forward(name, erase_keys=[bytes(k) for k in keys])
            return _ok(erased)
        except _HANDLED_ERRORS as exc:
            return _err(exc)

    def _rpc_length(self, req: RPCRequest) -> bytes:
        try:
            name = loads(req.payload)
            return _ok(len(self._db(name)))
        except _HANDLED_ERRORS as exc:
            return _err(exc)

    def _rpc_list_keys(self, req: RPCRequest) -> bytes:
        try:
            name, prefix, start_after, limit = loads(req.payload)
            keys = self._db(name).list_keys(prefix, start_after, limit)
            return _ok(keys)
        except _HANDLED_ERRORS as exc:
            return _err(exc)

    def _rpc_list_keyvals(self, req: RPCRequest) -> bytes:
        try:
            name, prefix, start_after, limit = loads(req.payload)
            db = self._db(name)
            out = []
            for key in db.list_keys(prefix, start_after, limit):
                out.append((key, db.get(key)))
            return _ok(out)
        except _HANDLED_ERRORS as exc:
            return _err(exc)

    def _rpc_count_prefix(self, req: RPCRequest) -> bytes:
        try:
            name, prefix = loads(req.payload)
            return _ok(self._db(name).count_prefix(prefix))
        except _HANDLED_ERRORS as exc:
            return _err(exc)

    def _rpc_replicate(self, req: RPCRequest) -> bytes:
        """Apply mutations forwarded by a primary (or a re-sync).

        Unlike ``put``/``erase`` this never re-forwards, so replica
        chains cannot loop; erases of absent keys are skipped because a
        forward may arrive after a re-sync already applied it.
        """
        try:
            name, pairs, erase_keys = loads(req.payload)
            db = self._db(name)
            pairs = [(bytes(k), bytes(v)) for k, v in pairs]
            erase_keys = [bytes(k) for k in erase_keys]
            stored = db.put_multi(pairs) if pairs else 0
            removed = db.erase_multi(erase_keys) if erase_keys else 0
            for key, _value in pairs:
                self._column_invalidate(name, key)
            for key in erase_keys:
                self._column_invalidate(name, key)
            if req.trace_span is not None:
                req.trace_span.set_tag("db", name)
                req.trace_span.set_tag("keys", len(pairs) + len(erase_keys))
            return _ok((stored, removed))
        except _HANDLED_ERRORS as exc:
            return _err(exc)

    def _rpc_sync(self, req: RPCRequest) -> bytes:
        """Make the provider durable *now*: drain replicas, flush WALs.

        Options: ``{"checkpoint": true}`` additionally snapshots every
        durable backend (truncating its WAL).  The datastore broadcasts
        this on epoch swaps so no replicated write is still in flight
        when a migration commits.
        """
        try:
            options = loads(req.payload) or {}
            drained = self.flush_replication()
            checkpointed = 0
            for backend in self.databases.values():
                if options.get("checkpoint") and backend.durable:
                    backend.checkpoint()
                    checkpointed += 1
                else:
                    backend.flush()
            return _ok({"drained": drained, "checkpointed": checkpointed})
        except _HANDLED_ERRORS as exc:
            return _err(exc)

    def _rpc_list_databases(self, req: RPCRequest) -> bytes:
        return _ok(sorted(self.databases))

    def _rpc_create_database(self, req: RPCRequest) -> bytes:
        try:
            name, kind, config = loads(req.payload)
            if name in self.databases:
                raise YokanError(f"database {name!r} already exists")
            self.databases[name] = open_backend(kind, **dict(config))
            return _ok()
        except _HANDLED_ERRORS as exc:
            return _err(exc)
