"""Mercury engines, RPC handles, and request contexts."""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.argobots import ULT, Eventual, Pool
from repro.errors import NoSuchRPCError, ReproError, RPCError, RPCTimeout
from repro.mercury.address import Address
from repro.mercury.bulk import Bulk, BulkOp
from repro.mercury.fabric import Fabric
from repro.monitor import tracing as _tracing


class RPCRequest:
    """The server-side view of an in-flight RPC.

    Handlers receive one of these; they read :attr:`payload`, may
    perform bulk transfers against client-exposed regions, and complete
    the call either by calling :meth:`respond` or simply by returning a
    ``bytes`` value (auto-respond).
    """

    def __init__(self, fabric: Fabric, origin: Address, target: Address,
                 rpc_name: str, provider_id: int, payload: bytes,
                 trace_context=None):
        self.fabric = fabric
        self.origin = origin
        self.target = target
        self.rpc_name = rpc_name
        self.provider_id = provider_id
        self.payload = payload
        #: The client-side span context extracted from the payload
        #: header, if the caller was tracing; server-side spans parent
        #: to it so traces cross the RPC boundary.
        self.trace_context = trace_context
        #: Set by traced providers so handlers can attach tags.
        self.trace_span = None
        self.response = Eventual()
        #: whether the call has been answered; written once, by
        #: :meth:`respond` or :meth:`fail`
        self.responded = False

    def respond(self, payload: bytes = b"") -> None:
        """Send the response back to the caller."""
        if payload.__class__ is not bytes:
            if not isinstance(payload, (bytes, bytearray)):
                raise TypeError("responses must be bytes")
            payload = bytes(payload)
        if self.responded:
            raise RPCError(f"rpc {self.rpc_name!r} already responded")
        # The fault model may drop the response; check before committing so
        # the failure can still be delivered through fail().
        fabric = self.fabric
        fabric.check_send(self.target, self.origin, len(payload))
        payload = fabric.corrupt_payload(self.target, self.origin, payload)
        self.responded = True
        fabric.stats.response_bytes += len(payload)
        self.response.set(payload)

    def fail(self, exc: BaseException) -> None:
        """Propagate a handler failure to the caller."""
        if not self.responded:
            self.responded = True
            self.response.set_exception(exc)

    def _handler_done(self, result, exc: Optional[BaseException]) -> None:
        """The handler's ULT finished: answer with what it returned,
        unless the handler already answered for itself."""
        if self.responded:
            return
        if exc is not None:
            self.fail(RPCError(
                f"handler for {self.rpc_name!r} raised: {exc!r}"))
        elif isinstance(result, (bytes, bytearray)):
            try:
                self.respond(result)
            except ReproError as err:  # fault model may drop the response
                self.fail(err)
        else:
            self.fail(RPCError(
                f"handler for {self.rpc_name!r} completed without responding"))

    # -- bulk transfers -----------------------------------------------------

    def bulk_transfer(self, op: BulkOp, remote_bulk: Bulk, local_bulk: Bulk,
                      remote_offset: int = 0, local_offset: int = 0,
                      size: Optional[int] = None) -> int:
        """RDMA-style transfer between a remote region and a local one.

        ``op`` is from this (server) side's perspective: ``PULL`` reads
        the remote region into the local one, ``PUSH`` writes the local
        region into the remote one.  Returns the number of bytes moved.
        """
        if size is None:
            size = min(len(remote_bulk) - remote_offset,
                       len(local_bulk) - local_offset)
        if size < 0:
            raise ValueError("negative transfer size")
        # Source data moves as a zero-copy view; the fault model only
        # materializes a mutable copy when it actually corrupts bytes.
        if op is BulkOp.PULL:
            if not remote_bulk.readable:
                raise RPCError("remote bulk region is not readable")
            self.fabric.check_send(remote_bulk.owner_address, self.target, size)
            data = remote_bulk.view(remote_offset, size)
            data = self.fabric.corrupt_payload(
                remote_bulk.owner_address, self.target, data)
            local_bulk.write(data, local_offset)
        elif op is BulkOp.PUSH:
            if not remote_bulk.writable:
                raise RPCError("remote bulk region is not writable")
            self.fabric.check_send(self.target, remote_bulk.owner_address, size)
            data = local_bulk.view(local_offset, size)
            data = self.fabric.corrupt_payload(
                self.target, remote_bulk.owner_address, data)
            remote_bulk.write(data, remote_offset)
        else:  # pragma: no cover - enum exhausted
            raise ValueError(f"unknown bulk op {op!r}")
        self.fabric.stats.record_bulk(self.target, remote_bulk.owner_address, size)
        return size


class Handle:
    """A client-side handle for one (target address, RPC name) pair."""

    def __init__(self, engine: "Engine", target: Address, rpc_name: str):
        self.engine = engine
        self.target = target
        self.rpc_name = rpc_name

    def forward(self, payload: bytes = b"", provider_id: int = 0,
                timeout: Optional[float] = None) -> bytes:
        """Send the RPC and wait for the response (blocking).

        ``timeout`` bounds the wait; on expiry the call raises
        :class:`~repro.errors.RPCTimeout` (the response, if it ever
        arrives, is discarded -- at-most-once from the caller's view).
        """
        engine = self.engine
        if not _tracing.enabled:
            return engine.fabric.wait(
                engine._forward(self.target, self.rpc_name, provider_id,
                                payload), timeout)
        with _tracing.span("mercury.forward", rpc=self.rpc_name,
                           target=str(self.target)) as sp:
            eventual = self.iforward(payload, provider_id)
            try:
                response = engine.fabric.wait(eventual, timeout=timeout)
            except RPCTimeout:
                sp.set_tag("error", "RPCTimeout")
                sp.set_tag("timeout", timeout)
                raise
            sp.set_tag("response_bytes", len(response))
            return response

    def iforward(self, payload: bytes = b"", provider_id: int = 0) -> Eventual:
        """Send the RPC; return an eventual resolving to the response.

        A handler that needs the answer waits for it like any caller,
        with ``fabric.wait(handle.iforward(data))``: on the inline
        runtime that wait drives the scheduler from inside the
        handler's ULT, on the threaded one it blocks the handler's
        xstream.
        """
        return self.engine._forward(self.target, self.rpc_name, provider_id,
                                    payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Handle({self.rpc_name!r} -> {self.target})"


HandlerFn = Callable[[RPCRequest], Union[bytes, None]]


class Engine:
    """A Mercury engine: an addressable endpoint with registered RPCs.

    Each engine gets a pool and an execution stream in the fabric's
    shared runtime; RPC registrations may override the pool per handler
    (how Margo maps providers to Argobots resources).
    """

    def __init__(self, fabric: Fabric, address: Union[str, Address],
                 pool: Optional[Pool] = None, listen: bool = True):
        self.fabric = fabric
        self.address = Address.parse(address) if isinstance(address, str) else address
        runtime = fabric.runtime
        if pool is None:
            pool = runtime.create_pool(f"{self.address}:pool")
            runtime.create_xstream(f"{self.address}:es", [pool])
        self.pool = pool
        self._registry: dict[tuple[str, int], tuple[HandlerFn, Pool]] = {}
        self._finalized = False
        if listen:
            self.listen()

    def listen(self) -> None:
        """Become addressable on the fabric.

        A server builds its engine with ``listen=False`` and calls this
        once every provider has registered, so a request never meets an
        engine that lacks its handlers: until then the address is dead
        (a retryable ``AddressError``), not a ``NoSuchRPCError``.
        """
        self.fabric.register_engine(self)

    # -- registration --------------------------------------------------------

    def register(self, rpc_name: str, handler: Optional[HandlerFn] = None,
                 provider_id: int = 0, pool: Optional[Pool] = None) -> None:
        """Register ``handler`` for ``rpc_name`` at ``provider_id``.

        A ``None`` handler registers the name client-side only (Mercury
        requires registration on both sides; we keep that requirement
        relaxed: lookups happen at the target).
        """
        if handler is None:
            return
        key = (rpc_name, provider_id)
        if key in self._registry:
            raise RPCError(
                f"rpc {rpc_name!r} provider {provider_id} already registered"
            )
        self._registry[key] = (handler, pool if pool is not None else self.pool)

    def registered(self, rpc_name: str, provider_id: int = 0) -> bool:
        return (rpc_name, provider_id) in self._registry

    # -- client side --------------------------------------------------------

    def create_handle(self, target: Union[str, Address], rpc_name: str) -> Handle:
        address = Address.parse(target) if isinstance(target, str) else target
        return Handle(self, address, rpc_name)

    def lookup(self, target: Union[str, Address]) -> Address:
        """Resolve and validate a peer address."""
        return self.fabric.lookup(target).address

    def expose(self, buffer: bytearray, mode: str = Bulk.READ_WRITE) -> Bulk:
        """Register local memory for remote bulk access."""
        return Bulk(self.address, buffer, mode)

    # -- delivery --------------------------------------------------------

    def _forward(self, target: Address, rpc_name: str, provider_id: int,
                 payload: bytes) -> Eventual:
        if payload.__class__ is not bytes:
            payload = bytes(payload)
        fabric = self.fabric
        # Corrupt the application payload before the trace header wraps
        # it, so corruption damages data (caught by wire checksums), not
        # the tracing envelope.
        payload = fabric.corrupt_payload(self.address, target, payload)
        # Inject the caller's span context (if any) as a payload header
        # so the receiving side can parent its spans across the wire.
        payload = _tracing.wrap_payload(payload)
        fabric.check_send(self.address, target, len(payload))
        fabric.stats.record_rpc(self.address, target, len(payload))
        remote = fabric.lookup(target)
        return remote._deliver(self.address, rpc_name, provider_id, payload)

    def _deliver(self, origin: Address, rpc_name: str, provider_id: int,
                 payload: bytes) -> Eventual:
        trace_context, payload = _tracing.unwrap_payload(payload)
        request = RPCRequest(self.fabric, origin, self.address, rpc_name,
                             provider_id, payload, trace_context)
        entry = self._registry.get((rpc_name, provider_id))
        if entry is None:
            request.fail(NoSuchRPCError(
                f"{self.address} has no rpc {rpc_name!r} for provider "
                f"{provider_id}"
            ))
            return request.response
        handler, pool = entry
        pool.push(ULT(handler, (request,), request._handler_done))
        return request.response

    def finalize(self) -> None:
        """Detach from the fabric (no new RPCs will be delivered)."""
        if not self._finalized:
            self._finalized = True
            self.fabric.deregister_engine(self)


__all__ = ["Engine", "Handle", "RPCRequest"]
