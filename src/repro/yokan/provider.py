"""The Yokan provider: serves key-value databases over Mercury RPCs.

One provider manages any number of named databases and is addressed by
``(engine address, provider_id)``.  Small operations travel inline in
RPC payloads; batched operations (``put_multi``, ``get_multi``) move
their data with RDMA-style bulk transfers, matching the paper's
"RPC for single small objects, RDMA for large objects or batches".
Every request and answer is one flat :mod:`repro.yokan.wire` message,
so a request off the network never reaches the product archive's
decoder; a landing read answers what fits its client's buffer, and a
column page all or none.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Optional

import numpy as np

from repro.argobots import Pool
from repro.errors import (
    CorruptionError,
    KeyNotFound,
    ReproError,
    ServiceBusy,
    YokanError,
)
from repro.mercury import Bulk, BulkOp, Engine, RPCRequest
from repro.monitor import tracing as _tracing
from repro.serial import columnar as _columnar
from repro.yokan import packed, wire
from repro.yokan.backend import Backend

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
    "yokan.list_databases",
    "yokan.replicate",
    "yokan.sync",
)


#: what the serve wrapper converts into a wire error response: the
#: service's own exception hierarchy (a malformed message is a
#: ``SerializationError``) plus a request whose fields do not fit its
#: handler.  Anything else (a genuine server bug) propagates and fails
#: the RPC.
_HANDLED_ERRORS = (ReproError, ValueError, TypeError, KeyError)


def _err(exc: BaseException) -> bytes:
    kind = "KeyNotFound" if isinstance(exc, KeyNotFound) else type(exc).__name__
    # 429-style sheds carry their server-supplied backoff hint as a
    # fourth element.
    retry_after = getattr(exc, "retry_after_s", None)
    if retry_after is not None:
        return wire.encode((wire.ERR, kind, str(exc), float(retry_after)))
    return wire.encode((wire.ERR, kind, str(exc)))


class ReplicaLink:
    """Asynchronous write forwarding from a primary database to its backup.

    Acknowledged mutations are re-sent as ``yokan.replicate`` RPCs
    (which apply without re-forwarding, so replication can never loop).
    Forwards are non-blocking with a bounded lag window: up to
    :data:`WINDOW` replicate futures may be in flight before the oldest
    is retired, mirroring the :class:`~repro.hepnos.AsyncEngine`
    submit/pump discipline.  A forward that exhausts its retry budget
    (backup down) is dropped and counted -- the anti-entropy re-sync on
    rejoin repairs the gap.
    """

    #: replicate futures in flight before the oldest is waited for
    WINDOW = 8

    def __init__(self, handle):
        self.handle = handle
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
            while len(self._inflight) > self.WINDOW:
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

    def __init__(self, engine: Engine, provider_id: int = 0,
                 pool: Optional[Pool] = None,
                 databases: Optional[dict[str, Backend]] = None,
                 broker=None):
        self.engine = engine
        self.provider_id = provider_id
        self.pool = pool if pool is not None else engine.pool
        #: optional :class:`repro.broker.RequestBroker` interposing
        #: admission control on tenant-tagged requests.
        self.broker = broker
        self.databases: dict[str, Backend] = dict(databases or {})
        #: db name -> ReplicaLink forwarding acknowledged writes.
        self._replicas: dict[str, ReplicaLink] = {}
        for rpc_name in RPC_NAMES:
            handler = getattr(self, "_rpc_" + rpc_name.split(".", 1)[1])
            engine.register(rpc_name, self._serve(rpc_name, handler),
                            provider_id=provider_id, pool=self.pool)

    def _serve(self, rpc_name: str, handler):
        """Build what ``engine.register`` gets for one RPC name.

        Every request of every verb takes the same four steps, each
        written once: *open* splits off the tenant envelope, *admit*
        (only with a broker attached and a tenant on the request) asks
        the broker for a service slot, *run* unseals and decodes the
        payload, calls the handler with the request's fields and turns
        what it returned or raised into a response body, *close* seals
        that body.  Handlers only work and return a value or raise; a
        tuple travels as its fields after the status.  An admitted
        request runs straight through, and its slot is returned in a
        ``finally``, however *run* ends.
        """
        op = rpc_name.split(".", 1)[1]
        span_name = f"yokan.provider.{op}"
        provider_id = self.provider_id
        engine_address = str(self.engine.address)
        broker = self.broker

        def span_of(req: RPCRequest):
            # The span parents to the client span whose context arrived
            # in the RPC payload header, so one trace covers both sides
            # of the wire; it opens before the envelope does, so a
            # corrupted request still produces a provider span.  With
            # no tracer installed this is one attribute read.
            if not _tracing.enabled:
                return _tracing.NULL_SPAN
            parent = req.trace_context
            if parent is None:
                parent = _tracing.NO_PARENT
            req.trace_span = _tracing.span(span_name, parent=parent,
                                           provider=provider_id,
                                           address=engine_address)
            return req.trace_span

        def refuse(req: RPCRequest, exc: BaseException) -> bytes:
            if req.trace_span is not None:
                req.trace_span.set_tag("error", type(exc).__name__)
            return _err(exc)

        def enter(req: RPCRequest) -> tuple:
            """*open* + *admit*: ``(envelope, admission, refusal body)``."""
            try:
                meta, envelope = wire.unwrap_tenant(req.payload)
                # Untagged (system) traffic bypasses the broker, and an
                # unbrokered server accepts and ignores the tenant
                # envelope, so tenant sessions work against any
                # deployment.
                if broker is None or meta is None or not meta.tenant:
                    return envelope, None, None
                if req.trace_span is not None:
                    req.trace_span.set_tag("tenant", meta.tenant)
                # A shed is answered from here, before the payload is
                # unsealed, as a 429-style error with its retry hint.
                return envelope, broker.admit(meta, op, len(envelope)), None
            except (CorruptionError, ServiceBusy) as exc:
                return None, None, refuse(req, exc)

        def run(req: RPCRequest, envelope) -> bytes:
            try:
                value = handler(req, *wire.decode(wire.unseal(envelope)))
            except _HANDLED_ERRORS as exc:
                return refuse(req, exc)
            if type(value) is tuple:
                return wire.encode((wire.OK, *value))
            return wire.encode((wire.OK, value))

        def serve(req: RPCRequest) -> bytes:
            with span_of(req):
                envelope, admission, body = enter(req)
                if body is None:
                    try:
                        body = run(req, envelope)
                    finally:
                        if admission is not None:
                            broker.finish(admission, len(body or b""))
                return wire.seal(body)

        return serve

    # -- database management -----------------------------------------------

    def _db(self, req: RPCRequest, name: str) -> Backend:
        """The database a request names (tagged on its span)."""
        if req.trace_span is not None:
            req.trace_span.set_tag("db", name)
        try:
            return self.databases[name]
        except KeyError:
            raise YokanError(f"no database named {name!r}") from None

    def close(self) -> None:
        for backend in self.databases.values():
            backend.close()

    # -- replication ---------------------------------------------------------

    def set_replica(self, db_name: str, handle) -> None:
        """Forward acknowledged writes of ``db_name`` to ``handle``."""
        if db_name not in self.databases:
            raise YokanError(f"no database named {db_name!r}")
        self._replicas[db_name] = ReplicaLink(handle)

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
    # Each takes the request's fields, does the work and returns the
    # value of the ``OK`` answer or raises; `_serve` does the rest.

    def _push_back(self, req: RPCRequest, bulk, buffer, count: int,
                   needed: int) -> tuple:
        """Move a landing verb's answer into the client's landing buffer.

        The server half of the client's ``_landing`` protocol.  A
        landing verb answers the leading ``count`` items it was asked
        that fit the client's buffer (a column page: all of them or
        none), packed in ``buffer``, and ``needed``: 0 when that is
        every item, else the buffer size a request for the rest should
        offer.  An answer of no item pushes
        nothing; otherwise one RDMA push.  Either way the answer is
        ``(count, needed, length, crc)`` -- the client verifies its
        landing buffer against the CRC before decoding, retrying the
        RPC on a corrupted push, and re-issues only the items not
        answered.  A ``bytearray`` answer is exposed as it is.
        """
        if req.trace_span is not None:
            req.trace_span.set_tag("answered", count)
            req.trace_span.set_tag("bytes", len(buffer))
        if not count:
            return 0, needed, 0, 0
        if buffer.__class__ is not bytearray:
            buffer = bytearray(buffer)
        local = self.engine.expose(buffer, Bulk.READ_ONLY)
        req.bulk_transfer(BulkOp.PUSH, bulk, local, size=len(buffer))
        return count, needed, len(buffer), wire.checksum(buffer)

    def _rpc_put(self, req: RPCRequest, name, key, value) -> None:
        self._db(req, name).put(key, value)
        self._forward(name, pairs=[(key, value)])

    def _rpc_put_multi(self, req: RPCRequest, name, bulk, nbytes,
                       crc) -> int:
        buffer = bytearray(nbytes)
        local = self.engine.expose(buffer, Bulk.READ_WRITE)
        req.bulk_transfer(BulkOp.PULL, bulk, local, size=nbytes)
        # The CRC rejects a corrupted bulk pull before anything is
        # stored; the pairs (one packed group, see the client's
        # frame_put_multi) are cut out of the pulled buffer as two
        # columns, and the backend inserts them as one batch.
        wire.verify_bulk(buffer, crc, "put_multi bulk buffer")
        keys, values = packed.unpack_columns(buffer)
        if req.trace_span is not None:
            req.trace_span.set_tag("keys", len(keys))
        count = self._db(req, name).put_columns(keys, values)
        self._forward(name, pairs=zip(keys, values))
        return count

    def _rpc_get(self, req: RPCRequest, name, key, max_inline):
        value = self._db(req, name).get(key)
        # Values above the client's inline limit are announced rather
        # than shipped, so the client can fetch them with a bulk
        # transfer.
        if len(value) > max_inline:
            return "large", len(value)
        return value

    def _rpc_get_multi(self, req: RPCRequest, name, keys, bulk, capacity):
        """Look the keys up one at a time, as they are packed: the
        first value that does not fit the landing buffer ends the
        answer, and the keys after it are never looked up."""
        if req.trace_span is not None:
            req.trace_span.set_tag("keys", len(keys))
        values = self._db(req, name).get_each(keys)
        return self._push_back(req, bulk, *packed.pack_leading(
            values, len(keys), capacity, packed.append_value))

    def _rpc_load_prefix_packed(self, req: RPCRequest, name, prefixes, bulk,
                                capacity):
        """Scan the requested prefixes and push one packed buffer back.

        Where ``get_multi`` needs the client to already know each key,
        this serves *whole events*: the backend's page of ordered
        prefix scans (:meth:`~repro.yokan.backend.Backend.scan_prefixes`),
        their pairs length-prefix packed (:mod:`repro.yokan.packed`) and
        moved in a single RDMA push.  Each group is packed as it is
        scanned, and the first that does not fit the landing buffer ends
        the answer: the groups after it are never scanned, so a prefix
        is scanned once more only when it straddles a buffer's end.
        """
        db = self._db(req, name)
        if req.trace_span is not None:
            req.trace_span.set_tag("prefixes", len(prefixes))
        groups = db.scan_prefixes([bytes(p) for p in prefixes])
        return self._push_back(req, bulk, *packed.pack_leading(
            groups, len(prefixes), capacity, packed.append_group))

    # -- server-side columnar projection -------------------------------------

    @staticmethod
    def _project(values: list, fields: list) -> tuple:
        """Per-item statuses and one wire block per field of a page of
        stored ``values`` (``None``: absent).

        Typed table values (what ingest stores) are never decoded:
        consecutive ones of one layout have their record bytes joined
        and each requested field copied out of the join in one strided
        pass.  Row-encoded values are decoded to their column table.
        """
        statuses: list = []
        tables: list = []
        layout, wide, run = None, None, []

        def close_run() -> None:
            if run:
                tables.append(_columnar.project_records(
                    layout, b"".join(run), fields))
                run.clear()

        # A value that cannot give every field as a numeric column of
        # its plan kind travels row-wise (its bytes are the status): the
        # client then evaluates per object and surfaces the same error
        # the object path would.  For a table that is decided once per
        # layout (``wide``), but for the int64 range of ``<u8`` fields.
        for value in values:
            if value is None:
                statuses.append(None)
                continue
            stored = _columnar.table_records(value)
            if stored is None:
                table = _columnar.value_to_table(value)
                if table is None or not all(
                        isinstance(table[2].get(f), np.ndarray)
                        for f in fields):
                    statuses.append(value)
                    continue
                close_run()
                statuses.append(table[1])
                tables.append(table[2])
                continue
            if stored[0] is not layout:
                close_run()
                layout = stored[0]
                wide = _columnar.table_projection(layout, fields)
            if wide is not None and (
                    not wide or _columnar.records_fit(layout, stored[1], wide)):
                run.append(stored[1])
                statuses.append(len(stored[1]) // layout.dtype.itemsize)
            else:
                statuses.append(value)
        close_run()
        return statuses, [_columnar.pack_field_column(tables, f)
                          for f in fields]

    def _rpc_scan_columns(self, req: RPCRequest, name, prefixes, suffix,
                          fields, bulk, capacity):
        """Materialize requested columns server-side; push one page back.

        The request names a database, a key list of container prefixes,
        the product-key suffix (label + type name) and a key list of
        UTF-8 field names (one that is not UTF-8 is refused).
        For every prefix whose product is a typed table, or decodes to
        a homogeneous list of planned products, and gives every
        requested field as a numeric column, only those columns travel;
        anything else travels row-wise in place (a
        per-prefix ``raw`` status) so the projection can never change
        what the client reconstructs.  Always from what the backend
        holds now (a projection that keeps no state cannot be stale).
        """
        fields = [str(field, "utf-8") for field in fields]
        values = self._db(req, name).get_multi(
            [prefix + suffix for prefix in prefixes])
        page = packed.pack_column_page(*self._project(values, fields))
        if req.trace_span is not None:
            req.trace_span.set_tag("prefixes", len(values))
            req.trace_span.set_tag("fields", len(fields))
        # All or none: the page is projected whole before its size is
        # known, so answering part of it would save no work.
        if len(page) > capacity:
            return self._push_back(req, bulk, b"", 0, len(page))
        return self._push_back(req, bulk, page, len(values), 0)

    def _rpc_exists(self, req: RPCRequest, name, key) -> bool:
        return self._db(req, name).exists(key)

    def _rpc_erase(self, req: RPCRequest, name, key) -> None:
        self._db(req, name).erase(key)
        self._forward(name, erase_keys=[key])

    def _rpc_erase_multi(self, req: RPCRequest, name, keys) -> int:
        erased = self._db(req, name).erase_multi(keys)
        self._forward(name, erase_keys=keys)
        return erased

    def _rpc_length(self, req: RPCRequest, name) -> int:
        return len(self._db(req, name))

    def _rpc_list_keys(self, req: RPCRequest, name, prefixes, start_after,
                       limit) -> list:
        """The next ``limit`` keys (0: all) under ``prefixes[0]`` after
        ``start_after``, then under each following prefix from its
        first key, in request order, as one flat key list."""
        if prefixes.__class__ is not list:
            raise YokanError("list_keys takes a key list of prefixes")
        db = self._db(req, name)
        keys: list = []
        room = limit
        for prefix in prefixes:
            listed = db.list_keys(prefix, start_after, room)
            keys += listed
            if limit:
                room -= len(listed)
                if not room:
                    break
            start_after = b""
        return keys

    def _rpc_replicate(self, req: RPCRequest, name, keys, values,
                       erase_keys) -> tuple:
        """Apply mutations forwarded by a primary (or a re-sync).

        Unlike ``put``/``erase`` this never re-forwards, so replica
        chains cannot loop; erases of absent keys are skipped because a
        forward may arrive after a re-sync already applied it.  Key and
        value lists of different lengths are refused, not paired short.
        """
        db = self._db(req, name)
        if len(keys) != len(values):
            raise YokanError(
                f"replicate of {len(keys)} keys and {len(values)} values")
        stored = db.put_columns(keys, values) if keys else 0
        removed = db.erase_multi(erase_keys) if erase_keys else 0
        if req.trace_span is not None:
            req.trace_span.set_tag("keys", len(keys) + len(erase_keys))
        return stored, removed

    def _rpc_sync(self, req: RPCRequest, checkpoint) -> tuple:
        """Make the provider durable *now*: drain replicas, flush WALs.

        ``checkpoint`` snapshots every durable backend instead of
        flushing it (truncating its WAL).  Answers ``(drained,
        checkpointed)``.  The datastore broadcasts this on epoch swaps
        so no replicated write is still in flight when a migration
        commits.
        """
        if checkpoint.__class__ is not bool:
            raise YokanError(f"sync takes a bool, not {checkpoint!r}")
        drained = self.flush_replication()
        checkpointed = 0
        for backend in self.databases.values():
            if checkpoint and backend.durable:
                backend.checkpoint()
                checkpointed += 1
            else:
                backend.flush()
        return drained, checkpointed

    def _rpc_list_databases(self, req: RPCRequest) -> list:
        return [name.encode() for name in sorted(self.databases)]
