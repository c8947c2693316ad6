"""The consolidated client options namespace (``repro.hepnos.options``).

Every client-side configuration dataclass lives here, importable from
one documented place::

    from repro.hepnos import options

    session = hepnos.connect(
        servers=servers, tenant="nova-prod",
        product_cache=options.ProductCacheOptions(max_bytes=1 << 28),
    )
    pep = ParallelEventProcessor(
        session.datastore, options=options.PEPOptions(input_batch_size=4096),
        products=[(Hit, "reco")],
    )

- :class:`PEPOptions` -- the event reader: the Prefetcher and the
  ParallelEventProcessor on top of it;
- :class:`ProductCacheOptions` -- the DataStore product cache;
- :class:`QuotaOptions` -- the tenant identity of a session
  (:func:`repro.hepnos.connect` builds it from its ``tenant`` /
  ``priority`` / ``token`` keywords).

``products`` and ``comm`` are not configuration -- they describe *what*
to process, not *how* -- and remain first-class parameters.

Validation lives here (``__post_init__``) so a bad value fails at
construction, with the same exception types the processors
historically raised.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import HEPnOSError


@dataclass(frozen=True)
class PEPOptions:
    """Tuning knobs for the event reader: the
    :class:`~repro.hepnos.Prefetcher`'s page loop and the
    :class:`~repro.hepnos.ParallelEventProcessor`'s dispatch on top.

    All fields are keyword-only.  The defaults reproduce the paper's
    configuration: large input batches (few RPCs, big transfers), small
    dispatch batches (fine-grained load balancing).
    """

    #: events fetched per reader RPC round -- one page, which spans
    #: subrun boundaries (paper default 16384)
    input_batch_size: int = 16384
    #: events handed to a worker per pull (paper default 64)
    dispatch_batch_size: int = 64
    #: selects nothing: object loads always fetch exactly the product
    #: keys they name, one ``get_multi`` per database per page
    packed_loads: bool = True
    #: fetch only the columns a vectorized ``process_batches`` handler
    #: declared, via the server-side ``scan_columns`` projection, and
    #: hand the handler struct-of-arrays event batches; requires exactly
    #: one product spec and has no effect on per-event ``process()``
    columnar_loads: bool = False

    def __post_init__(self) -> None:
        if self.input_batch_size <= 0 or self.dispatch_batch_size <= 0:
            raise HEPnOSError("batch sizes must be positive")


@dataclass(frozen=True)
class ProductCacheOptions:
    """Configuration for the :class:`DataStore` product cache.

    Products are immutable once written, so the cache never needs
    invalidation; these knobs only bound its footprint.  Disabling the
    cache removes it entirely (the load paths skip every cache branch).
    """

    #: whether the datastore keeps a client-side product cache at all
    enabled: bool = True
    #: total serialized bytes the cache may hold
    max_bytes: int = 64 * 1024 * 1024
    #: maximum number of cached products
    max_entries: int = 65536

    def __post_init__(self) -> None:
        if self.max_bytes <= 0:
            raise HEPnOSError("max_bytes must be positive")
        if self.max_entries <= 0:
            raise HEPnOSError("max_entries must be positive")


@dataclass(frozen=True)
class QuotaOptions:
    """Tenant identity and service terms of one session.

    Carried by every RPC the session issues (as a wire-level tenant
    envelope) so the server-side request broker can meter the session
    against its registered rate limits and quotas.  The default --
    an empty tenant id -- sends untagged traffic that bypasses
    admission control, preserving the unbrokered fast path.
    """

    #: tenant id the service accounts this session under
    tenant: str = ""
    #: ``"interactive"`` (preempts batch) or ``"batch"``
    priority: str = "batch"
    #: quota token proving the session may use the tenant's terms
    token: str = ""

    def __post_init__(self) -> None:
        from repro.yokan import wire
        wire.priority_code(self.priority)  # validates the class name

    def envelope(self):
        """The :class:`~repro.yokan.wire.TenantEnvelope` equivalent."""
        from repro.yokan import wire
        if not self.tenant:
            return None
        return wire.TenantEnvelope(self.tenant,
                                   wire.priority_code(self.priority),
                                   self.token)


def check_columnar(products, columns) -> None:
    """A column projection covers exactly one product spec and names
    the fields to project (shared by the PEP and the Prefetcher)."""
    if len(products) != 1:
        raise HEPnOSError(
            f"columnar_loads projects one product spec; got {len(products)}")
    if not columns:
        raise HEPnOSError(
            "columnar_loads needs the columns to project "
            "(pass columns=[...])")


__all__ = [
    "PEPOptions",
    "ProductCacheOptions",
    "QuotaOptions",
]
