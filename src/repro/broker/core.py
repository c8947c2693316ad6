"""The request broker: admission control + fair-share + ops surface.

One :class:`RequestBroker` fronts all the Yokan providers of a Bedrock
server.  For every tenant-tagged RPC the provider asks the broker to
:meth:`~RequestBroker.admit` the request *before* unsealing its
payload:

1. the tenant envelope resolves against the :class:`TenantRegistry`
   (unknown tenant / bad quota token -> :class:`QuotaExceeded`);
2. the tenant's **token bucket** must cover the request
   (:class:`ServiceBusy` with a ``retry_after_s`` hint equal to the
   bucket's refill time otherwise);
3. the tenant's **bytes-in-flight quota** and **queue bound** must have
   room (:class:`QuotaExceeded` / :class:`ServiceBusy` otherwise);
4. the admitted request is submitted to the
   :class:`~repro.broker.scheduler.FairShareScheduler` and the handler
   ULT yields until its ticket is granted.

Shedding happens before any payload decode or database work, so an
overloaded server spends O(1) per rejected request.  Completions feed
per-tenant metrics (admitted / shed / queued / completed gauges and
counters in a :class:`~repro.monitor.MetricRegistry`) and a bounded
**slow-query log** for the ops surface (``repro-hepnos tenants``).
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import Callable, Dict, Optional

from repro.broker.scheduler import FairShareScheduler, Ticket
from repro.broker.tenants import TenantRegistry, TenantSpec
from repro.errors import ConfigError, QuotaExceeded, ServiceBusy
from repro.monitor.metrics import MetricRegistry
from repro.yokan import wire

#: ``retry_after_s`` hint for quota and queue-full sheds (a queue-full
#: hint grows with the queue's depth).
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
    """One admitted request: quota accounting + its scheduler ticket."""

    __slots__ = ("spec", "op", "nbytes", "ticket", "admitted_at")

    def __init__(self, spec: TenantSpec, op: str, nbytes: int,
                 ticket: Ticket, admitted_at: float):
        self.spec = spec
        self.op = op
        self.nbytes = nbytes
        self.ticket = ticket
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
    __slots__ = ("bucket", "bytes_in_flight", "counters", "metric_pairs")

    def __init__(self, spec: TenantSpec,
                 clock: Callable[[], float]) -> None:
        self.bucket = TokenBucket(spec.rate, spec.burst_size, clock=clock)
        self.bytes_in_flight = 0
        self.counters = {"admitted": 0, "shed": 0, "completed": 0,
                         "shed_rate": 0, "shed_quota": 0, "shed_queue": 0,
                         "bytes_served": 0}
        #: event name -> (global counter, per-tenant counter); built
        #: lazily so the registry lookup and name formatting happen
        #: once per tenant, not once per request.
        self.metric_pairs: Dict[str, tuple] = {}


class RequestBroker:
    """Admission control and fair-share scheduling for one server."""

    def __init__(self, registry: Optional[TenantRegistry] = None,
                 slots: int = 8, interactive_reserve: Optional[int] = None,
                 slow_query_s: float = 0.05,
                 metrics: Optional[MetricRegistry] = None,
                 clock: Callable[[], float] = time.monotonic):
        self.registry = registry if registry is not None else TenantRegistry(
            default=TenantSpec(tenant=""))
        if interactive_reserve is None:
            interactive_reserve = min(2, slots - 1)
        # An explicit reserve outside [0, slots) is the scheduler's
        # ValueError (a ConfigError from validate_config).
        self.scheduler = FairShareScheduler(
            slots=slots, interactive_reserve=interactive_reserve)
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
                    state = _TenantState(spec, self._clock)
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
        a ``retry_after_s`` refill hint for token-bucket shedding and
        full queues.  Never touches the sealed payload.
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
        if (state.bytes_in_flight > 0
                and state.bytes_in_flight + nbytes > spec.max_bytes_in_flight):
            self._count(state, spec.tenant, "shed")
            state.counters["shed_quota"] += 1
            raise QuotaExceeded(
                f"tenant {spec.tenant!r} has {state.bytes_in_flight}B in "
                f"flight; admitting {nbytes}B would exceed its "
                f"{spec.max_bytes_in_flight}B quota",
                retry_after_s=SHED_RETRY_HINT_S)
        ticket = self.scheduler.submit(spec.tenant, spec.priority_code,
                                       nbytes, weight=spec.weight,
                                       max_queue=spec.max_queue)
        if ticket is None:
            self._count(state, spec.tenant, "shed")
            state.counters["shed_queue"] += 1
            depth = self.scheduler.queue_depth(spec.tenant,
                                               spec.priority_code)
            raise ServiceBusy(
                f"tenant {spec.tenant!r} queue is full ({depth} waiting)",
                retry_after_s=SHED_RETRY_HINT_S * (1 + depth / 8))
        with self._lock:
            state.bytes_in_flight += nbytes
        self._count(state, spec.tenant, "admitted")
        return Admission(spec, op, nbytes, ticket, self._clock())

    def begin(self, admission: Admission) -> float:
        """Mark service start; returns queue wait for the slow-query log."""
        return self._clock() - admission.admitted_at

    def finish(self, admission: Admission, response_bytes: int = 0,
               queued_s: float = 0.0) -> None:
        """Release the slot and quota of a completed request."""
        self.scheduler.release(admission.ticket)
        state = self._states.get(admission.tenant)
        elapsed = self._clock() - admission.admitted_at
        if state is not None:
            with self._lock:
                state.bytes_in_flight = max(
                    0, state.bytes_in_flight - admission.nbytes)
            self._count(state, admission.tenant, "completed")
            state.counters["bytes_served"] += (admission.nbytes
                                               + response_bytes)
        self.slow_queries.record(admission.tenant, admission.op,
                                 elapsed, queued_s,
                                 admission.nbytes + response_bytes)

    # -- the ops surface ---------------------------------------------------

    def tenant_stats(self) -> dict:
        """Per-tenant admitted/shed/queued/in-flight snapshot."""
        sched = self.scheduler.stats()
        queued_by_tenant: Dict[str, int] = {}
        for per_class in sched["queued"].values():
            for tenant, depth in per_class.items():
                queued_by_tenant[tenant] = (
                    queued_by_tenant.get(tenant, 0) + depth)
        with self._lock:
            tenants = {
                tenant: dict(state.counters,
                             bytes_in_flight=state.bytes_in_flight,
                             queued=queued_by_tenant.get(tenant, 0))
                for tenant, state in sorted(self._states.items())
            }
        return {
            "tenants": tenants,
            "scheduler": sched,
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
