"""Retry policies: exponential backoff with jitter and deadlines.

One :class:`RetryPolicy` object describes how a client reacts to
transient transport failures -- how many attempts, how long to back off
between them, how much total time it may spend, and which exception
types count as transient.  The Yokan client, the asynchronous write
batch, and the ParallelEventProcessor readers all consume the same
policy type, so one configuration knob tunes the whole stack.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Optional, Tuple

from repro.errors import (
    AddressError,
    CorruptionError,
    NetworkFailure,
    RPCTimeout,
    ServiceBusy,
    ShardMapStale,
)

#: Exception types that are safe to retry: the fabric dropped the
#: message (:class:`NetworkFailure`), the target engine was not
#: registered -- e.g. a crashed provider that Bedrock will restart
#: (:class:`AddressError`), the call timed out (:class:`RPCTimeout`),
#: the payload was damaged in flight (:class:`CorruptionError`), the
#: shard map advanced mid-operation during a live rescale
#: (:class:`ShardMapStale`), or the broker shed the request under load
#: (:class:`ServiceBusy`, which covers :class:`QuotaExceeded`).  All
#: Yokan operations are idempotent, so re-sending is always safe.
RETRYABLE_ERRORS: Tuple[type, ...] = (
    NetworkFailure,
    AddressError,
    RPCTimeout,
    CorruptionError,
    ShardMapStale,
    ServiceBusy,
)


class RetryPolicy:
    """Bounded retries with exponential backoff, jitter, and a deadline.

    ``max_attempts`` counts the first try: ``max_attempts=1`` means fail
    fast.  The delay before retry *i* (0-based) is
    ``min(max_delay, base_delay * multiplier**i)`` scaled by a uniform
    jitter factor in ``[1 - jitter, 1 + jitter]``.  ``deadline`` bounds
    the total time spent inside one :meth:`call` (including backoff
    sleeps); ``rpc_timeout`` is the per-attempt timeout handed to
    :meth:`repro.mercury.Handle.forward`.

    ``sleep`` is injectable so tests can capture the backoff sequence
    without actually waiting.
    """

    def __init__(self, max_attempts: int = 4, base_delay: float = 0.001,
                 max_delay: float = 0.25, multiplier: float = 2.0,
                 jitter: float = 0.25, deadline: Optional[float] = None,
                 rpc_timeout: Optional[float] = None,
                 retry_on: Tuple[type, ...] = RETRYABLE_ERRORS,
                 seed: Optional[int] = None,
                 sleep: Callable[[float], None] = time.sleep):
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if base_delay < 0 or max_delay < 0:
            raise ValueError("delays must be non-negative")
        if multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.multiplier = multiplier
        self.jitter = jitter
        self.deadline = deadline
        self.rpc_timeout = rpc_timeout
        self.retry_on = tuple(retry_on)
        self.sleep = sleep
        self._rng = random.Random(seed)

    # -- construction shortcuts --------------------------------------------

    @classmethod
    def none(cls) -> "RetryPolicy":
        """Fail fast: one attempt, no backoff."""
        return cls(max_attempts=1)

    @classmethod
    def from_config(cls, config: dict) -> "RetryPolicy":
        """Build from a JSON-ish dict (the connection ``client`` section)."""
        known = {"max_attempts", "base_delay", "max_delay", "multiplier",
                 "jitter", "deadline", "rpc_timeout", "seed"}
        unknown = set(config) - known
        if unknown:
            raise ValueError(f"unknown retry settings: {sorted(unknown)}")
        return cls(**{k: config[k] for k in known if k in config})

    # -- behaviour ---------------------------------------------------------

    def retryable(self, exc: BaseException) -> bool:
        return isinstance(exc, self.retry_on)

    def delay(self, retry_index: int,
              exc: Optional[BaseException] = None) -> float:
        """Backoff before the ``retry_index``-th retry (0-based).

        When the failure carries a server-supplied ``retry_after_s``
        hint (a :class:`~repro.errors.ServiceBusy` shed by the request
        broker), the hint *replaces* the exponential schedule: the
        server knows when capacity frees up, the client does not.  The
        hint is still jittered so a herd of shed clients does not
        return in lock-step.
        """
        hint = getattr(exc, "retry_after_s", None) if exc is not None else None
        if hint is not None:
            base = max(0.0, float(hint))
        else:
            base = min(self.max_delay,
                       self.base_delay * (self.multiplier ** retry_index))
        if base <= 0.0:
            return 0.0
        if self.jitter:
            base *= 1.0 - self.jitter + 2.0 * self.jitter * self._rng.random()
        return base

    def _giveup(self, attempts: int, elapsed: float, why: str,
                exc: BaseException) -> BaseException:
        """The exception to raise when the budget runs out.

        A same-type exception whose message records how hard the policy
        tried (attempt count, elapsed time, what gave out), chained to
        -- and carrying the attributes of -- the last underlying
        failure, so handlers reading tags like ``failed_address`` off a
        giveup keep working.  Exception types that can't be rebuilt
        from a single message fall back to the original.
        """
        try:
            enriched = type(exc)(
                f"{exc} [gave up after {attempts} attempt"
                f"{'s' if attempts != 1 else ''} in {elapsed:.3f}s: {why}]"
            )
        except TypeError:
            return exc
        enriched.__dict__.update(exc.__dict__)
        enriched.__cause__ = exc
        return enriched

    def call(self, fn: Callable[..., object], *args,
             on_retry: Optional[Callable[[int, BaseException, float], None]] = None,
             on_giveup: Optional[Callable[[int, BaseException], None]] = None):
        """Invoke ``fn(*args)`` under this policy; return its result.

        ``on_retry(attempt, exc, delay)`` fires before each backoff
        sleep; ``on_giveup(attempts, exc)`` fires right before the final
        exception is raised (exhausted attempts or deadline).  The
        giveup raises a same-type exception annotated with the attempt
        count and elapsed time, explicitly chained (``from``) to the
        last underlying failure.
        """
        start = time.monotonic()
        attempt = 0
        while True:
            try:
                return fn(*args)
            except self.retry_on as exc:
                attempt += 1
                if attempt >= self.max_attempts:
                    if on_giveup is not None:
                        on_giveup(attempt, exc)
                    raise self._giveup(attempt,
                                       time.monotonic() - start,
                                       "attempts exhausted", exc) from exc
                pause = self.delay(attempt - 1, exc)
                if self.deadline is not None and (
                        time.monotonic() - start + pause >= self.deadline):
                    if on_giveup is not None:
                        on_giveup(attempt, exc)
                    raise self._giveup(attempt,
                                       time.monotonic() - start,
                                       "deadline exceeded", exc) from exc
                if on_retry is not None:
                    on_retry(attempt, exc, pause)
                if pause > 0.0:
                    self.sleep(pause)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RetryPolicy(attempts={self.max_attempts}, "
                f"base={self.base_delay}, max={self.max_delay}, "
                f"deadline={self.deadline}, rpc_timeout={self.rpc_timeout})")


def default_client_policy() -> RetryPolicy:
    """The stock DataStore policy: mask transient faults, bound the cost.

    Ten attempts with 1 ms -> 100 ms exponential backoff rides out
    message drops and a provider crash/restart window, while a 30 s
    per-operation deadline keeps a dead service from hanging a client
    forever.
    """
    return RetryPolicy(max_attempts=10, base_delay=0.001, max_delay=0.1,
                       deadline=30.0)
