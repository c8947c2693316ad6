"""The multi-tenant request broker (the serving tier of the service).

Production HEPnOS is a *shared* service: whole collaborations hit the
same providers.  This package is the tier that makes that safe --
clients open a tenant session (:func:`repro.hepnos.connect`) and every
RPC carries a tenant envelope that the server-side
:class:`RequestBroker` runs through admission control (per-tenant
token-bucket rate limits, bytes-in-flight quotas, and a bound on the
requests in service with a reserved slice for interactive classes)
before any payload is decoded.  Load is shed with retryable 429-style
errors (:class:`~repro.errors.ServiceBusy`) carrying server-supplied
``retry_after_s`` hints that :class:`~repro.faults.RetryPolicy` honors.

Wiring: :class:`~repro.bedrock.BedrockServer` builds one broker per
server from the ``tenants`` config section and hands it to every
:class:`~repro.yokan.YokanProvider`; ``repro-hepnos tenants`` renders
the ops surface (per-tenant gauges + slow-query log).
"""

from repro.broker.core import (
    Admission,
    RequestBroker,
    SlowQueryLog,
    TokenBucket,
)
from repro.broker.tenants import TenantRegistry, TenantSpec

__all__ = [
    "Admission",
    "RequestBroker",
    "SlowQueryLog",
    "TenantRegistry",
    "TenantSpec",
    "TokenBucket",
]
