"""The request broker: admission control and the ops surface.

One :class:`RequestBroker` fronts all the Yokan providers of a Bedrock
server.  For every tenant-tagged RPC the provider asks the broker to
:meth:`~RequestBroker.admit` the request *before* unsealing its
payload:

1. the tenant envelope resolves against the :class:`TenantRegistry`
   (unknown tenant / bad quota token -> :class:`QuotaExceeded`);
2. the tenant's **token bucket** must cover the request
   (:class:`ServiceBusy` with a ``retry_after_s`` hint equal to the
   bucket's refill time otherwise);
3. the tenant's **bytes-in-flight quota** must have room
   (:class:`QuotaExceeded` otherwise);
4. the server's **in-service count** must be under its priority
   class's bound: ``slots`` for interactive requests, ``slots -
   interactive_reserve`` for batch ones (:class:`ServiceBusy`
   otherwise).

There is no queue behind admission: the provider's Argobots pool is
the queue, and its execution streams already bound how many handlers
run at once.  An admitted handler runs straight through and
:meth:`~RequestBroker.finish` releases its slot and quota.  Shedding
happens before any payload decode or database work, so an overloaded
server spends O(1) per rejected request.  Completions feed per-tenant
metrics (admitted / shed / completed counters in a
:class:`~repro.monitor.MetricRegistry`) and a bounded **slow-query
log** for the ops surface (``repro-hepnos tenants``).
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import Callable, Dict, Optional

from repro.broker.tenants import TenantRegistry, TenantSpec
from repro.errors import ConfigError, QuotaExceeded, ServiceBusy
from repro.monitor.metrics import MetricRegistry
from repro.yokan import wire

#: ``retry_after_s`` hint for quota and service-bound sheds.
SHED_RETRY_HINT_S = 0.002


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s, capacity ``burst``."""

    __slots__ = ("rate", "burst", "_tokens", "_last", "_clock", "_lock")

    def __init__(self, rate: float, burst: float,
                 clock: Callable[[], float] = time.monotonic):
        self.rate = rate
        self.burst = burst
        self._tokens = burst
        self._clock = clock
        self._last = clock()
        self._lock = threading.Lock()

    def try_acquire(self, n: float = 1.0) -> float:
        """Take ``n`` tokens; 0.0 on success, else seconds until refill."""
        if math.isinf(self.rate):
            return 0.0
        with self._lock:
            now = self._clock()
            self._tokens = min(self.burst,
                               self._tokens + (now - self._last) * self.rate)
            self._last = now
            if self._tokens >= n:
                self._tokens -= n
                return 0.0
            return (n - self._tokens) / self.rate


class Admission:
    """One admitted request: what :meth:`RequestBroker.finish` releases."""

    __slots__ = ("spec", "op", "nbytes", "admitted_at")

    def __init__(self, spec: TenantSpec, op: str, nbytes: int,
                 admitted_at: float):
        self.spec = spec
        self.op = op
        self.nbytes = nbytes
        self.admitted_at = admitted_at

    @property
    def tenant(self) -> str:
        return self.spec.tenant


class SlowQueryLog:
    """Bounded ring of the slowest served requests, for the ops CLI."""

    def __init__(self, threshold_s: float = 0.05, capacity: int = 128):
        self.threshold_s = threshold_s
        self._entries: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def record(self, tenant: str, op: str, elapsed_s: float,
               queued_s: float, nbytes: int) -> None:
        if elapsed_s < self.threshold_s:
            return
        with self._lock:
            self._entries.append({
                "tenant": tenant, "op": op,
                "elapsed_s": round(elapsed_s, 6),
                "queued_s": round(queued_s, 6),
                "bytes": nbytes, "at": time.time(),
            })

    def entries(self) -> list:
        with self._lock:
            return list(self._entries)


class _TenantState:
    __slots__ = ("bucket", "limit", "bytes_in_flight", "counters",
                 "metric_pairs")

    def __init__(self, spec: TenantSpec, limit: int,
                 clock: Callable[[], float]) -> None:
        self.bucket = TokenBucket(spec.rate, spec.burst_size, clock=clock)
        #: in-service count below which this tenant's class is admitted
        self.limit = limit
        self.bytes_in_flight = 0
        self.counters = {"admitted": 0, "shed": 0, "completed": 0,
                         "shed_rate": 0, "shed_quota": 0, "shed_slots": 0,
                         "bytes_served": 0}
        #: event name -> (global counter, per-tenant counter); built
        #: lazily so the registry lookup and name formatting happen
        #: once per tenant, not once per request.
        self.metric_pairs: Dict[str, tuple] = {}


class RequestBroker:
    """Admission control for one server: rate, quota and service bound."""

    def __init__(self, registry: Optional[TenantRegistry] = None,
                 slots: int = 8, interactive_reserve: Optional[int] = None,
                 slow_query_s: float = 0.05,
                 metrics: Optional[MetricRegistry] = None,
                 clock: Callable[[], float] = time.monotonic):
        if interactive_reserve is None:
            interactive_reserve = min(2, slots - 1)
        # Out of range is a ValueError here, a ConfigError from
        # validate_config.
        if slots < 1:
            raise ValueError("slots must be >= 1")
        if not 0 <= interactive_reserve < slots:
            raise ValueError("interactive_reserve must be in [0, slots)")
        self.registry = registry if registry is not None else TenantRegistry(
            default=TenantSpec(tenant=""))
        self.slots = slots
        self.interactive_reserve = interactive_reserve
        #: requests admitted and not yet finished, over every tenant
        self.in_service = 0
        self.slow_queries = SlowQueryLog(threshold_s=slow_query_s)
        self.metrics = metrics if metrics is not None else MetricRegistry(
            "broker")
        self._clock = clock
        self._states: Dict[str, _TenantState] = {}
        self._lock = threading.Lock()

    # -- internal ----------------------------------------------------------

    def _state(self, spec: TenantSpec) -> _TenantState:
        state = self._states.get(spec.tenant)
        if state is None:
            with self._lock:
                state = self._states.get(spec.tenant)
                if state is None:
                    limit = self.slots
                    if spec.priority_code != wire.PRIORITY_INTERACTIVE:
                        limit -= self.interactive_reserve
                    state = _TenantState(spec, limit, self._clock)
                    self._states[spec.tenant] = state
        return state

    def _count(self, state: _TenantState, tenant: str, what: str) -> None:
        state.counters[what] += 1
        pair = state.metric_pairs.get(what)
        if pair is None:
            pair = (self.metrics.counter(f"broker.{what}"),
                    self.metrics.counter(f"broker.tenant.{tenant}.{what}"))
            state.metric_pairs[what] = pair
        pair[0].inc()
        pair[1].inc()

    # -- the serving path --------------------------------------------------

    def admit(self, meta: wire.TenantEnvelope, op: str,
              nbytes: int) -> Admission:
        """Admit one request or raise a retryable 429-style error.

        Raises :class:`QuotaExceeded` for unknown tenants, bad quota
        tokens, and bytes-in-flight overruns; :class:`ServiceBusy` with
        a ``retry_after_s`` hint for token-bucket shedding (the refill
        time) and a full service bound.  Never touches the sealed
        payload.  Every admission must be paired with one
        :meth:`finish`.
        """
        try:
            spec = self.registry.resolve(meta)
        except ServiceBusy as exc:
            self.metrics.counter("broker.shed").inc()
            self.metrics.counter("broker.rejected_auth").inc()
            exc.retry_after_s = None
            raise
        state = self._state(spec)
        wait = state.bucket.try_acquire()
        if wait > 0.0:
            self._count(state, spec.tenant, "shed")
            state.counters["shed_rate"] += 1
            raise ServiceBusy(
                f"tenant {spec.tenant!r} over its rate limit "
                f"({spec.rate:g} req/s)", retry_after_s=wait)
        with self._lock:
            in_flight = state.bytes_in_flight
            over_quota = (in_flight > 0
                          and in_flight + nbytes > spec.max_bytes_in_flight)
            in_service = self.in_service
            admitted = not over_quota and in_service < state.limit
            if admitted:
                self.in_service = in_service + 1
                state.bytes_in_flight = in_flight + nbytes
        if not admitted:
            self._count(state, spec.tenant, "shed")
            if over_quota:
                state.counters["shed_quota"] += 1
                raise QuotaExceeded(
                    f"tenant {spec.tenant!r} has {in_flight}B in flight; "
                    f"admitting {nbytes}B would exceed its "
                    f"{spec.max_bytes_in_flight}B quota",
                    retry_after_s=SHED_RETRY_HINT_S)
            state.counters["shed_slots"] += 1
            raise ServiceBusy(
                f"{in_service} requests in service; tenant "
                f"{spec.tenant!r}'s class is bounded at {state.limit}",
                retry_after_s=SHED_RETRY_HINT_S)
        self._count(state, spec.tenant, "admitted")
        return Admission(spec, op, nbytes, self._clock())

    def begin(self, admission: Admission) -> float:
        """Seconds since ``admission``; a slow-query entry's ``queued_s``."""
        return self._clock() - admission.admitted_at

    def finish(self, admission: Admission, response_bytes: int = 0,
               queued_s: float = 0.0) -> None:
        """Release the service slot and quota of a completed request."""
        state = self._states[admission.tenant]
        elapsed = self._clock() - admission.admitted_at
        with self._lock:
            self.in_service -= 1
            state.bytes_in_flight -= admission.nbytes
        self._count(state, admission.tenant, "completed")
        state.counters["bytes_served"] += admission.nbytes + response_bytes
        self.slow_queries.record(admission.tenant, admission.op,
                                 elapsed, queued_s,
                                 admission.nbytes + response_bytes)

    # -- the ops surface ---------------------------------------------------

    def tenant_stats(self) -> dict:
        """Per-tenant counters and bytes in flight, and the slow queries."""
        with self._lock:
            tenants = {
                tenant: dict(state.counters,
                             bytes_in_flight=state.bytes_in_flight)
                for tenant, state in sorted(self._states.items())
            }
        return {
            "tenants": tenants,
            "slow_queries": self.slow_queries.entries(),
        }

    @classmethod
    def from_config(cls, config: dict,
                    metrics: Optional[MetricRegistry] = None
                    ) -> "RequestBroker":
        """Build from the validated bedrock ``tenants`` config section."""
        known = {"slots", "interactive_reserve", "slow_query_s", "registry",
                 "default"}
        unknown = set(config) - known
        if unknown:
            raise ConfigError(
                f"unknown tenants settings: {sorted(unknown)}")
        reserve = config.get("interactive_reserve")
        return cls(
            registry=TenantRegistry.from_config(config),
            slots=int(config.get("slots", 8)),
            interactive_reserve=None if reserve is None else int(reserve),
            slow_query_s=float(config.get("slow_query_s", 0.05)),
            metrics=metrics,
        )
