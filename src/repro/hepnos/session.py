"""The session-based public API: ``repro.hepnos.connect``.

Everything a client process needs -- the connection description, the
DataStore, an optional :class:`~repro.hepnos.AsyncEngine`, cache and
retry configuration, and the tenant identity the service accounts the
traffic under -- is owned by one :class:`TenantSession`::

    import repro.hepnos as hepnos
    from repro.hepnos import options

    with hepnos.connect(servers=servers, tenant="nova-prod",
                        priority="interactive") as session:
        ds = session.datastore.create_dataset("fermilab/nova")
        ...

The session is a context manager: leaving the block drains any async
engine and finalizes the client's Mercury engine.  The pre-session
constructors (``DataStore.connect`` and friends) keep working
unchanged; :func:`connect` is sugar over them, not a replacement.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.errors import HEPnOSError
from repro.faults.retry import RetryPolicy
from repro.hepnos.async_engine import AsyncEngine
from repro.hepnos.connection import ConnectionInfo, connection_from_servers
from repro.hepnos.datastore import DataStore
from repro.hepnos.options import ProductCacheOptions, QuotaOptions
from repro.monitor.metrics import MetricRegistry


class TenantSession:
    """One client's connection to a HEPnOS service, as one object.

    Owns the :class:`~repro.hepnos.DataStore` (and through it the
    client engine), the optional :class:`~repro.hepnos.AsyncEngine`,
    and the :class:`~repro.hepnos.options.QuotaOptions` identity under
    which the service meters this client.  Built by :func:`connect`;
    usable as a context manager (``close`` drains and finalizes).
    """

    def __init__(self, datastore: DataStore,
                 quota: Optional[QuotaOptions] = None,
                 async_engine: Optional[AsyncEngine] = None):
        self.datastore = datastore
        self.quota = quota if quota is not None else QuotaOptions()
        self.async_engine = async_engine
        self._closed = False

    # -- convenience passthroughs -----------------------------------------

    @property
    def tenant(self) -> str:
        return self.quota.tenant

    @property
    def connection(self) -> ConnectionInfo:
        return self.datastore.connection

    @property
    def metrics(self) -> MetricRegistry:
        return self.datastore.metrics

    def __getitem__(self, path: str):
        return self.datastore[path]

    def create_dataset(self, path: str):
        return self.datastore.create_dataset(path)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Drain the async engine (if any) and finalize the client."""
        if self._closed:
            return
        self._closed = True
        self.datastore.shutdown()

    def __enter__(self) -> "TenantSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.tenant or "<untagged>"
        return (f"TenantSession(tenant={label!r}, "
                f"priority={self.quota.priority!r})")


def connect(connection=None, *,
            servers=None,
            fabric=None,
            tenant: str = "",
            priority: str = "batch",
            token: str = "",
            retry_policy: Optional[RetryPolicy] = None,
            async_engine: Union[AsyncEngine, bool, None] = None,
            product_cache: Optional[ProductCacheOptions] = None
            ) -> TenantSession:
    """Open a :class:`TenantSession` against a deployed service.

    The service is described either by ``connection`` (a
    :class:`~repro.hepnos.ConnectionInfo`, JSON text, or a dict -- the
    paper's ``config.json``) together with the ``fabric`` it lives on,
    or by ``servers`` (deployed
    :class:`~repro.bedrock.BedrockServer` objects, whose fabric is
    used automatically).

    ``tenant`` / ``priority`` / ``token`` name the identity the
    service accounts this session under (a
    :class:`~repro.hepnos.options.QuotaOptions`).  With an empty tenant
    the session sends untagged traffic that bypasses admission control
    -- byte-identical to the pre-session API.

    ``async_engine=True`` builds a default
    :class:`~repro.hepnos.AsyncEngine` and attaches it; an explicit
    engine instance is attached as-is.  Remaining keywords mirror
    :meth:`DataStore.connect <repro.hepnos.DataStore.connect>`; the
    client's own fabric address is derived there, not passed.
    """
    quota = None
    if tenant or token or priority != "batch":
        quota = QuotaOptions(tenant=tenant, priority=priority, token=token)

    if servers is not None:
        if connection is not None:
            raise HEPnOSError("pass either connection= or servers=, not both")
        servers = list(servers)
        if not servers:
            raise HEPnOSError("connect(servers=...) needs at least one server")
        if fabric is None:
            fabric = servers[0].fabric
        connection = connection_from_servers(servers)
    elif connection is None:
        raise HEPnOSError("connect() needs a connection= or servers=")
    elif fabric is None:
        raise HEPnOSError("connect(connection=...) also needs its fabric=")

    engine: Optional[AsyncEngine]
    if async_engine is True:
        engine = AsyncEngine()
    elif async_engine is False or async_engine is None:
        engine = None
    else:
        engine = async_engine

    datastore = DataStore.connect(
        fabric, connection,
        retry_policy=retry_policy,
        async_engine=engine,
        product_cache=product_cache,
        quota=quota,
    )
    return TenantSession(datastore, quota=quota, async_engine=engine)


__all__ = ["TenantSession", "connect"]
