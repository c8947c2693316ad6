"""Tenant registry: who may talk to the service, and on what terms.

A :class:`TenantSpec` is the server-side contract for one tenant --
priority class, token-bucket rate limit, bytes-in-flight quota, and an
optional quota token the client must present.  The
:class:`TenantRegistry` resolves the tenant header of an incoming
request (:class:`repro.yokan.wire.TenantEnvelope`) to a spec, falling
back to a configurable ``default`` spec for tenants that were never
registered (or rejecting them outright when no default is configured).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Iterable, Optional

from repro.errors import ConfigError, QuotaExceeded
from repro.yokan import wire

#: spec fields an operator may set in the bedrock ``tenants.registry``
#: (and ``tenants.default``) config sections.
_SPEC_KEYS = {"id", "priority", "rate", "burst", "max_bytes_in_flight",
              "token"}


@dataclass(frozen=True)
class TenantSpec:
    """Admission parameters for one tenant."""

    tenant: str
    #: ``"interactive"`` requests may take the broker's interactive
    #: reserve; ``"batch"`` ones may not
    priority: str = "batch"
    #: token-bucket refill rate, requests per second (inf = unlimited)
    rate: float = math.inf
    #: token-bucket capacity; defaults to one second of ``rate``
    burst: Optional[float] = None
    #: request payload + response bytes this tenant may have in flight
    max_bytes_in_flight: int = 64 * 1024 * 1024
    #: expected quota token; empty = no token check
    token: str = ""

    def __post_init__(self) -> None:
        wire.priority_code(self.priority)  # validates the class name
        if self.rate <= 0:
            raise ConfigError(f"tenant {self.tenant!r}: rate must be > 0")
        if self.burst is not None and self.burst <= 0:
            raise ConfigError(f"tenant {self.tenant!r}: burst must be > 0")
        if self.max_bytes_in_flight <= 0:
            raise ConfigError(
                f"tenant {self.tenant!r}: max_bytes_in_flight must be > 0")

    @property
    def burst_size(self) -> float:
        """Effective bucket capacity: ``burst`` or one second of rate."""
        if self.burst is not None:
            return self.burst
        if math.isinf(self.rate):
            return math.inf
        return max(1.0, self.rate)

    @property
    def priority_code(self) -> int:
        return wire.priority_code(self.priority)

    @classmethod
    def from_config(cls, spec: dict, tenant: Optional[str] = None
                    ) -> "TenantSpec":
        if not isinstance(spec, dict):
            raise ConfigError("tenant specs must be objects")
        unknown = set(spec) - _SPEC_KEYS
        if unknown:
            raise ConfigError(
                f"unknown tenant settings: {sorted(unknown)} "
                f"(known: {sorted(_SPEC_KEYS)})")
        name = spec.get("id", tenant)
        if not name and tenant is None:
            raise ConfigError("every registry entry needs an 'id'")
        kwargs = {k: spec[k] for k in spec if k != "id"}
        if "rate" in kwargs:
            kwargs["rate"] = float(kwargs["rate"])
        return cls(tenant=name or "", **kwargs)


class TenantRegistry:
    """Resolve tenant envelopes to specs; enforce quota tokens."""

    def __init__(self, specs: Iterable[TenantSpec] = (),
                 default: Optional[TenantSpec] = None):
        self._specs: Dict[str, TenantSpec] = {}
        for spec in specs:
            if spec.tenant in self._specs:
                raise ConfigError(f"duplicate tenant {spec.tenant!r}")
            self._specs[spec.tenant] = spec
        #: spec applied to tenants absent from the registry; ``None``
        #: rejects them (closed registry).
        self.default = default
        #: re-keyed default specs, memoized per tenant -- resolve() is
        #: on every request's admission path and dataclasses.replace
        #: re-runs the frozen-spec validation each time.
        self._default_cache: Dict[str, TenantSpec] = {}

    def resolve(self, meta: wire.TenantEnvelope) -> TenantSpec:
        """The spec governing one request; raises on unknown/bad-token.

        Unknown tenants inherit the ``default`` spec (re-keyed to their
        id so accounting stays per-tenant) when one is configured.  A
        registered tenant with a non-empty expected token must present
        it; both failure modes raise :class:`QuotaExceeded` so the
        rejection travels the wire as a 429-style error.
        """
        spec = self._specs.get(meta.tenant)
        if spec is None:
            if self.default is None:
                raise QuotaExceeded(
                    f"unknown tenant {meta.tenant!r} and the registry "
                    f"has no default tenant spec")
            spec = self._default_cache.get(meta.tenant)
            if spec is None:
                if len(self._default_cache) >= 4096:
                    self._default_cache.clear()
                spec = replace(self.default, tenant=meta.tenant)
                self._default_cache[meta.tenant] = spec
            return spec
        if spec.token and meta.token != spec.token:
            raise QuotaExceeded(
                f"tenant {meta.tenant!r} presented a bad quota token")
        return spec

    @classmethod
    def from_config(cls, config: dict) -> "TenantRegistry":
        """Build from the bedrock ``tenants`` config section.

        ``default`` omitted means an *open* registry (unregistered
        tenants get stock :class:`TenantSpec` terms); an explicit
        ``"default": null`` closes it (unknown tenants are rejected).
        """
        specs = [TenantSpec.from_config(entry)
                 for entry in config.get("registry", [])]
        default_cfg = config.get("default", {})
        default = (TenantSpec.from_config(default_cfg, tenant="")
                   if default_cfg is not None else None)
        return cls(specs, default=default)
