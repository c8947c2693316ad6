"""Client-side access to remote Yokan databases.

Every RPC travels as one flat message of its fields
(:func:`repro.yokan.wire.encode`), never an archive, sealed with a
CRC32 envelope and issued under the client's
:class:`~repro.faults.RetryPolicy`: transient failures -- fabric
drops, provider-crash address errors, per-call timeouts, and wire
corruption -- are retried with exponential backoff until the policy's
attempt or deadline budget runs out.  All Yokan operations are
idempotent, so retrying is always safe.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple, Union

from repro.errors import (
    AddressError,
    CorruptionError,
    KeyNotFound,
    NetworkFailure,
    QuotaExceeded,
    RPCTimeout,
    ServiceBusy,
    YokanError,
)
from repro.faults.retry import RetryPolicy
from repro.mercury import Address, Bulk, Engine
from repro.monitor import tracing as _tracing
from repro.yokan import packed, wire
from repro.yokan.nonblocking import OperationFuture, _ResizeNeeded

#: Error kinds that travel over the wire and rehydrate into their
#: original exception types client-side (so the retry policy can tell
#: transient transport failures apart from real database errors).
_ERROR_KINDS = {
    "KeyNotFound": KeyNotFound,
    "CorruptionError": CorruptionError,
    "NetworkFailure": NetworkFailure,
    "RPCTimeout": RPCTimeout,
    "AddressError": AddressError,
    "ServiceBusy": ServiceBusy,
    "QuotaExceeded": QuotaExceeded,
}


def _unwrap(response: bytes):
    decoded = wire.decode(wire.unseal(response))
    status = decoded[0]
    if status == wire.OK:
        # a tuple answer travels as its fields
        return decoded[1] if len(decoded) == 2 else decoded[1:]
    kind, message = decoded[1], decoded[2]
    exc_type = _ERROR_KINDS.get(kind)
    if exc_type is not None:
        exc = exc_type(message)
        # 429-style sheds append the server's Retry-After hint; the
        # retry policy prefers it over its exponential schedule.
        if len(decoded) > 3 and decoded[3] is not None:
            exc.retry_after_s = float(decoded[3])
        raise exc
    raise YokanError(f"{kind}: {message}")


def frame_put_multi(engine: Engine, name: str,
                    pairs: Sequence[Tuple[bytes, bytes]]) -> tuple:
    """The ``yokan.put_multi`` request storing ``pairs`` in ``name``.

    The pairs travel as one :mod:`repro.yokan.packed` group in a bulk
    buffer the provider pulls; the request ``(name, bulk, nbytes, crc)``
    carries the buffer's descriptor, size and CRC.  The sender must keep
    the request alive until the response arrives: the fabric tracks the
    bulk registration (which owns the buffer) only weakly.
    """
    buffer = packed.pack_groups((pairs,))
    bulk = engine.expose(buffer, Bulk.READ_ONLY)
    return name, bulk, len(buffer), wire.checksum(buffer)


class DatabaseHandle:
    """A client handle to one named database at one provider."""

    #: Values larger than this travel by bulk transfer (RDMA) instead of
    #: inline in the RPC payload, mirroring Yokan's small/large split.
    BULK_THRESHOLD = 8192

    def __init__(self, client: "YokanClient", target: Address,
                 provider_id: int, name: str):
        self.client = client
        self.target = target
        self.provider_id = provider_id
        self.name = name
        self._engine = client.engine
        #: rpc name -> the mercury handle every call of that verb reuses
        self._handles: dict = {}

    def _handle(self, rpc: str):
        handle = self._handles.get(rpc)
        if handle is None:
            handle = self._handles[rpc] = self._engine.create_handle(
                self.target, rpc)
        return handle

    def _seal(self, body) -> bytes:
        """Seal a payload, adding the tenant envelope inside a session.

        Clients without a tenant context (system traffic, legacy
        callers) produce byte-identical envelopes to previous releases.
        """
        envelope = wire.seal(body)
        prefix = self.client._tenant_prefix
        if prefix is not None:
            return prefix + envelope
        return envelope

    def _call(self, rpc: str, payload, **trace_tags) -> object:
        """Forward one RPC under the client's retry policy."""
        if _tracing.enabled:
            with _tracing.span(f"yokan.client.{rpc.split('.', 1)[1]}",
                               db=self.name, target=str(self.target),
                               **trace_tags):
                return self._call_inner(rpc, payload)
        return self._call_inner(rpc, payload)

    def _call_inner(self, rpc: str, payload) -> object:
        policy = self.client.retry_policy
        return policy.call(self._attempt, self._handle(rpc),
                           self._seal(wire.encode(payload)),
                           policy.rpc_timeout,
                           on_retry=self._on_retry, on_giveup=self._on_giveup)

    def _attempt(self, handle, encoded: bytes, timeout):
        return _unwrap(handle.forward(encoded, self.provider_id, timeout))

    # The retry callbacks tag the ``yokan.client.*`` span of the call
    # they belong to: by the time the policy calls them it is the
    # thread's current span again (the attempt's own spans have closed).

    def _on_retry(self, n: int, exc: BaseException, pause: float) -> None:
        self.client._record_retry(exc)
        span = _tracing.current_span()
        if span is not None:
            span.set_tag("retries", n)
            span.set_tag("error", type(exc).__name__)

    def _on_giveup(self, n: int, exc: BaseException) -> None:
        self.client._record_giveup(exc)
        self._tag_failure(exc)
        span = _tracing.current_span()
        if span is not None:
            span.set_tag("error", type(exc).__name__)
            span.set_tag("gave_up", True)

    def _tag_failure(self, exc: BaseException) -> None:
        """Stamp the failed target onto a given-up exception.

        The datastore's failover step reads these attributes to decide
        which shard died and which backup to promote.
        """
        exc.failed_address = str(self.target)
        exc.failed_provider_id = self.provider_id
        exc.failed_db = self.name

    # -- single-item operations ------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        key, value = bytes(key), bytes(value)
        if len(value) > self.BULK_THRESHOLD:
            # Large object: one RPC carrying a bulk descriptor; the
            # server pulls the value by RDMA.
            self.put_multi([(key, value)])
            return
        self._call("yokan.put", (self.name, key, value))

    def get(self, key: bytes) -> bytes:
        key = bytes(key)
        result = self._call(
            "yokan.get", (self.name, key, self.BULK_THRESHOLD)
        )
        if isinstance(result, tuple) and result and result[0] == "large":
            # Second round trip moves the value by bulk transfer.
            (value,) = self.get_multi([key], size_hint=result[1] + 64)
            if value is None:
                raise KeyNotFound(repr(key))
            return bytes(value)  # not a view pinning the landing buffer
        return result

    def exists(self, key: bytes) -> bool:
        return self._call("yokan.exists", (self.name, bytes(key)))

    def erase(self, key: bytes) -> None:
        self._call("yokan.erase", (self.name, bytes(key)))

    def erase_multi(self, keys) -> int:
        """Remove many keys in one RPC; missing keys are skipped."""
        keys = [bytes(k) for k in keys]
        if not keys:
            return 0
        return self._call("yokan.erase_multi", (self.name, keys),
                          keys=len(keys))

    def __len__(self) -> int:
        return self._call("yokan.length", (self.name,))

    # -- bulk verbs: each defined once, as its non-blocking form --------------

    def _future(self, issue, finish, description: str,
                dispatch: bool = True) -> OperationFuture:
        client = self.client

        def on_giveup(n, exc):
            client._record_giveup(exc)
            self._tag_failure(exc)

        future = OperationFuture(
            self._engine.fabric, client.retry_policy, issue, finish,
            description=description,
            on_retry=lambda n, exc, pause: client._record_retry(exc),
            on_giveup=on_giveup,
        )
        # dispatch=False leaves the future PENDING (still cancellable);
        # an AsyncEngine dispatches it when its in-flight window allows.
        return future.dispatch() if dispatch else future

    def _wait(self, verb: str, future: OperationFuture):
        """The blocking form of a bulk verb: issue + wait, under the
        ``yokan.client.<verb>`` span (``future`` must be undispatched so
        the forward carries that span's context)."""
        if not _tracing.enabled:
            return future.wait()
        with _tracing.span(f"yokan.client.{verb}", db=self.name,
                           target=str(self.target),
                           op=future.description) as sp:
            try:
                return future.wait()
            finally:
                if future.retries:
                    sp.set_tag("retries", future.retries)

    def _landing(self, rpc: str, items: list, frame, decode, capacity: int):
        """The landing-buffer protocol every bulk read shares.

        Returns the ``(issue, finish)`` pair of an
        :class:`OperationFuture`.  Each issue allocates a buffer of the
        current capacity, exposes it, and sends ``frame(asked, bulk,
        capacity)`` for the items not answered yet; the buffer and its
        ``Bulk`` (regions are tracked weakly, and the provider's RDMA
        push may land long after issue) stay pinned in the closure.  The
        provider answers the leading items that fit, their count and
        the size a request for the rest needs; the rest is re-issued at
        that size, outside the retry budget, and the answers of all the
        requests are joined in item order (a column page is answered all
        or none, so it never joins).  The pushed bytes are
        CRC-verified before ``decode(view, count)`` sees them, inside
        the retirement loop, so a corrupted push re-issues the RPC.  The
        decoded values are zero-copy views that keep their buffer
        alive.
        """
        handle = self._handle(rpc)
        state = {"capacity": capacity, "start": 0, "buffer": None,
                 "bulk": None}
        parts: list = []

        def issue():
            state["buffer"] = bytearray(state["capacity"])
            state["bulk"] = self._engine.expose(state["buffer"],
                                                Bulk.READ_WRITE)
            payload = self._seal(wire.encode(frame(
                items[state["start"]:], state["bulk"], state["capacity"])))
            return handle.iforward(payload, self.provider_id)

        def finish(raw):
            count, needed, nbytes, crc = _unwrap(raw)
            if count:
                view = memoryview(state["buffer"])[:nbytes]
                wire.verify_bulk(view, crc, f"{rpc} landing buffer")
                part = decode(view, count)
                if state["start"] + count == len(items):
                    return ([item for done in parts for item in done] + part
                            if parts else part)
                parts.append(part)
                state["start"] += count
            state["capacity"] = needed
            raise _ResizeNeeded()

        return issue, finish

    def get_multi_nb(self, keys: Sequence[bytes], size_hint: int = 0,
                     *, dispatch: bool = True) -> OperationFuture:
        """Fetch many keys with one RPC + one RDMA push-back.

        Resolves to the values in request order, ``None`` for a missing
        key; values are zero-copy ``memoryview`` slices of the landing
        buffer (copy one that must outlive it).  ``size_hint`` presizes
        the landing buffer.
        """
        keys = [bytes(k) for k in keys]
        description = f"get_multi[{len(keys)}]@{self.name}"
        if not keys:
            return OperationFuture.completed([], description)
        issue, finish = self._landing(
            "yokan.get_multi", keys,
            lambda asked, bulk, capacity: (self.name, asked, bulk, capacity),
            packed.unpack_values, size_hint or (64 * len(keys) + 1024))
        return self._future(issue, finish, description, dispatch=dispatch)

    def get_multi(self, keys: Sequence[bytes],
                  size_hint: int = 0) -> list[Optional[bytes]]:
        return self._wait("get_multi", self.get_multi_nb(
            keys, size_hint, dispatch=False))

    def load_prefix_packed_nb(self, prefixes: Sequence[bytes],
                              size_hint: int = 0, *, dispatch: bool = True
                              ) -> OperationFuture:
        """Fetch *all* pairs under each prefix: one RPC, one RDMA push.

        Resolves to one group per prefix, in request order; values are
        zero-copy ``memoryview`` slices of the landing buffer (the views
        pin it, copy if you need the bytes to outlive the result).  No
        reader issues it: it serves whole-event scans to tools and
        benchmarks that ask for them.  Without a ``size_hint`` the
        buffer starts at a small per-prefix floor: a first, cold
        request is answered
        with the groups that fit and the size the rest needs, and only
        the rest is asked again, instead of every cold request
        zero-filling a buffer many times its payload.  A prefix is
        scanned twice only when its group straddles a buffer's end.
        """
        prefixes = [bytes(p) for p in prefixes]
        description = f"load_prefix_packed[{len(prefixes)}]@{self.name}"
        if not prefixes:
            return OperationFuture.completed([], description)
        issue, finish = self._landing(
            "yokan.load_prefix_packed", prefixes,
            lambda asked, bulk, capacity: (self.name, asked, bulk, capacity),
            packed.unpack_groups, size_hint or (256 * len(prefixes)))
        return self._future(issue, finish, description, dispatch=dispatch)

    def load_prefix_packed(self, prefixes: Sequence[bytes],
                           size_hint: int = 0
                           ) -> list[list[Tuple[bytes, memoryview]]]:
        return self._wait("load_prefix_packed", self.load_prefix_packed_nb(
            prefixes, size_hint, dispatch=False))

    def scan_columns_nb(self, prefixes: Sequence[bytes], suffix: bytes,
                        fields: Sequence[str], size_hint: int = 0,
                        *, dispatch: bool = True) -> OperationFuture:
        """Server-side projection: fetch only ``fields`` of each product.

        For every ``prefix + suffix`` product key the provider decodes
        the stored value and ships just the requested columns,
        concatenated per field into one CRC-checked page
        (:func:`repro.yokan.packed.unpack_column_page`).  Resolves to
        ``(statuses, blocks)``: one status per prefix (``None`` absent,
        row count when columnar, raw value ``memoryview`` fallback) and
        one ``(dtype_str, payload)`` block per field.  Values without a
        column plan travel row-wise, so projection narrows the data but
        never changes it.  The field names travel as a key list of their
        UTF-8 bytes.  A page is answered all or none: one that outgrows
        the buffer comes back with no item and its exact size, and is
        asked again whole.  The datastore issues one of these per
        involved shard so projections fan out concurrently.
        """
        prefixes = [bytes(p) for p in prefixes]
        fields = [str(f).encode() for f in fields]
        description = f"scan_columns[{len(prefixes)}]@{self.name}"
        if not prefixes:
            return OperationFuture.completed(
                ([], [("O", memoryview(b"")) for _ in fields]), description)
        suffix = bytes(suffix)
        issue, finish = self._landing(
            "yokan.scan_columns", prefixes,
            lambda asked, bulk, capacity: (self.name, asked, suffix, fields,
                                           bulk, capacity),
            lambda view, count: packed.unpack_column_page(
                view, count, len(fields)),
            size_hint or (64 * len(prefixes) * max(1, len(fields))))
        return self._future(issue, finish, description, dispatch=dispatch)

    def scan_columns(self, prefixes: Sequence[bytes], suffix: bytes,
                     fields: Sequence[str], size_hint: int = 0
                     ) -> Tuple[list, list]:
        return self._wait("scan_columns", self.scan_columns_nb(
            prefixes, suffix, fields, size_hint, dispatch=False))

    def put_multi_nb(self, pairs: Iterable[Tuple[bytes, bytes]],
                     *, dispatch: bool = True) -> OperationFuture:
        """Store many pairs with one RPC + one RDMA pull; resolves to
        the pair count.

        The RPC carries the CRC of the packed buffer; the provider
        verifies it after the pull, so a corrupted bulk transfer fails
        the call (retryably) instead of storing damaged values.  The
        packed source buffer (and its bulk descriptor) stay alive in the
        future's closure until retirement, so the provider's pull always
        finds them -- including on policy-driven re-issues.
        """
        pairs = list(pairs)
        description = f"put_multi[{len(pairs)}]@{self.name}"
        if not pairs:
            return OperationFuture.completed(0, description)
        handle = self._handle("yokan.put_multi")
        request = frame_put_multi(self._engine, self.name, pairs)
        payload = self._seal(wire.encode(request))

        def issue(_pinned=request):
            # Default arg pins the packed buffer and its (weakly
            # tracked) bulk region for the life of the future.
            return handle.iforward(payload, self.provider_id)

        return self._future(issue, _unwrap, description, dispatch=dispatch)

    def put_multi(self, pairs: Iterable[Tuple[bytes, bytes]]) -> int:
        return self._wait("put_multi",
                          self.put_multi_nb(pairs, dispatch=False))

    def replicate_nb(self, pairs: Iterable[Tuple[bytes, bytes]] = (),
                     erase_keys: Iterable[bytes] = (),
                     *, dispatch: bool = True) -> OperationFuture:
        """Apply mutations *without* re-forwarding to this database's
        own replica; resolves to ``(stored, removed)``.

        This is the primary->backup and re-sync verb -- what a primary's
        :class:`~repro.yokan.provider.ReplicaLink` issues per
        acknowledged mutation: the payload is pinned in the closure so
        policy-driven re-issues resend identical bytes.
        """
        pairs = [(bytes(k), bytes(v)) for k, v in pairs]
        keys = [bytes(k) for k in erase_keys]
        description = f"replicate[{len(pairs) + len(keys)}]@{self.name}"
        if not pairs and not keys:
            return OperationFuture.completed((0, 0), description)
        handle = self._handle("yokan.replicate")
        payload = self._seal(wire.encode((
            self.name, [k for k, _ in pairs], [v for _, v in pairs], keys)))

        def issue():
            return handle.iforward(payload, self.provider_id)

        return self._future(issue, _unwrap, description, dispatch=dispatch)

    def replicate(self, pairs: Iterable[Tuple[bytes, bytes]] = (),
                  erase_keys: Iterable[bytes] = ()) -> Tuple[int, int]:
        return self._wait("replicate", self.replicate_nb(
            pairs, erase_keys, dispatch=False))

    # -- iteration --------------------------------------------------------

    def list_keys(self, prefix: bytes = b"", start_after: bytes = b"",
                  limit: int = 0) -> list[bytes]:
        return self._call(
            "yokan.list_keys", (self.name, bytes(prefix), bytes(start_after), limit)
        )

    def iter_keys(self, prefix: bytes = b"", batch: int = 128):
        """Generator over keys with ``prefix``, paging ``batch`` at a time
        (a short page is the last)."""
        start_after = b""
        while True:
            page = self.list_keys(prefix, start_after, batch)
            yield from page
            if not batch or len(page) < batch:
                return
            start_after = page[-1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DatabaseHandle({self.name!r} @ {self.target} "
            f"provider {self.provider_id})"
        )


class YokanClient:
    """Factory for database handles, bound to a client engine.

    Retry behaviour is governed by ``retry_policy``
    (:class:`~repro.faults.RetryPolicy`); the default is a single
    attempt (fail fast).

    ``metrics`` (a :class:`~repro.monitor.MetricRegistry`) receives
    ``yokan.client.retries`` / ``yokan.client.giveups`` counters plus
    per-error-kind breakdowns when provided.

    ``tenant`` (a :class:`~repro.yokan.wire.TenantEnvelope`) tags every
    request this client issues with a tenant identity, priority class,
    and quota token, so the server-side request broker can meter it.
    ``None`` (the default) sends untagged system traffic that bypasses
    admission control -- byte-identical to previous releases.
    """

    def __init__(self, engine: Engine,
                 retry_policy: Optional[RetryPolicy] = None,
                 metrics=None,
                 tenant: Optional[wire.TenantEnvelope] = None):
        self.engine = engine
        self.retry_policy = (retry_policy if retry_policy is not None
                             else RetryPolicy.none())
        self.metrics = metrics
        self.tenant = tenant
        #: the identity's constant wire prefix, encoded once per client
        self._tenant_prefix = (
            wire.tenant_prefix(tenant.tenant, tenant.priority, tenant.token)
            if tenant is not None else None)

    def _record_retry(self, exc: BaseException) -> None:
        if self.metrics is not None:
            self.metrics.counter("yokan.client.retries").inc()
            self.metrics.counter(
                f"yokan.client.retries.{type(exc).__name__}").inc()

    def _record_giveup(self, exc: BaseException) -> None:
        if self.metrics is not None:
            self.metrics.counter("yokan.client.giveups").inc()

    def _admin_call(self, target: Union[str, Address], rpc_name: str,
                    payload, provider_id: int):
        address = Address.parse(target) if isinstance(target, str) else target
        handle = self.engine.create_handle(address, rpc_name)
        encoded = wire.seal(wire.encode(payload))
        policy = self.retry_policy

        def attempt():
            return _unwrap(handle.forward(encoded, provider_id,
                                          timeout=policy.rpc_timeout))

        return policy.call(
            attempt,
            on_retry=lambda n, exc, pause: self._record_retry(exc),
            on_giveup=lambda n, exc: self._record_giveup(exc),
        )

    def database_handle(self, target: Union[str, Address], provider_id: int,
                        name: str) -> DatabaseHandle:
        address = Address.parse(target) if isinstance(target, str) else target
        return DatabaseHandle(self, address, provider_id, name)

    def list_databases(self, target: Union[str, Address],
                       provider_id: int = 0) -> list[str]:
        names = self._admin_call(target, "yokan.list_databases", (),
                                 provider_id)
        return [name.decode() for name in names]

    def sync(self, target: Union[str, Address], provider_id: int = 0,
             checkpoint: bool = False) -> dict:
        """Drain a provider's replica links and flush its backends;
        ``checkpoint`` snapshots each durable backend instead."""
        drained, checkpointed = self._admin_call(
            target, "yokan.sync", (bool(checkpoint),), provider_id)
        return {"drained": drained, "checkpointed": checkpointed}
