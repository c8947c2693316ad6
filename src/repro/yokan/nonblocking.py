"""Non-blocking Yokan operations: the OperationFuture.

The single-item verbs of :class:`~repro.yokan.client.DatabaseHandle`
(``get`` / ``put`` / ``exists`` / ``erase`` / ``list_keys``) forward an
RPC and drive the fabric until the response arrives.  Every *bulk* verb
(``get_multi`` / ``load_prefix_packed`` / ``scan_columns`` /
``put_multi`` / ``replicate``) is instead defined once,
as its ``_nb`` form: it issues the Mercury forward immediately and
hands back an :class:`OperationFuture`; the caller overlaps its own
work with the in-flight request and *retires* the future later with
:meth:`wait`.  The blocking name of a bulk verb is that future, waited
for at once.

Retirement is the one fault-handling path those verbs have: the
client's :class:`~repro.faults.RetryPolicy` governs re-issues after
transient transport failures (drops, provider crashes, timeouts, wire
corruption), a landing buffer too small for its answer re-issues for
what is left transparently, and retry / give-up metrics land in the same counters
as the single-item verbs'.
A future is therefore exactly as fault-tolerant as a blocking call --
it just lets the latency hide behind computation (the paper's core
speedup mechanism, section II-D).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from repro.argobots import Eventual
from repro.errors import OperationCancelled
from repro.monitor import tracing as _tracing


class _ResizeNeeded(Exception):
    """Internal: the provider answered only some of the items asked (or
    none), and named the landing buffer the rest needs.

    Not a failure -- the finish callback mutates its closure state and
    the operation re-issues for the rest immediately, outside the retry
    budget.
    """


class OperationFuture:
    """One in-flight non-blocking Yokan operation.

    States: ``pending`` (created but not yet forwarded -- only while
    queued behind an :class:`~repro.hepnos.AsyncEngine` window),
    ``inflight`` (forward issued, response outstanding), ``done``
    (result or exception settled), ``cancelled``.

    ``issue`` forwards the RPC and returns the response
    :class:`~repro.argobots.Eventual`; ``finish`` decodes/validates one
    raw response into the final result and may raise ``_ResizeNeeded``
    (re-issue with adjusted closure state) or any retryable error (the
    policy decides whether to re-issue).
    """

    PENDING = "pending"
    INFLIGHT = "inflight"
    DONE = "done"
    CANCELLED = "cancelled"

    def __init__(self, fabric, policy, issue: Callable[[], Eventual],
                 finish: Callable[[bytes], object], description: str = "",
                 on_retry: Optional[Callable] = None,
                 on_giveup: Optional[Callable] = None):
        self._fabric = fabric
        self._policy = policy
        self._issue = issue
        self._finish = finish
        self.description = description
        self._on_retry = on_retry
        self._on_giveup = on_giveup
        self._lock = threading.Lock()
        self._eventual: Optional[Eventual] = None
        self._result = None
        self._exception: Optional[BaseException] = None
        self.state = OperationFuture.PENDING
        #: number of policy-driven re-issues this operation needed
        self.retries = 0
        #: monotonic timestamps for overlap accounting
        self.issued_at: Optional[float] = None
        self.settled_at: Optional[float] = None
        self._callbacks: list[Callable[["OperationFuture"], None]] = []

    @classmethod
    def completed(cls, result, description: str = "") -> "OperationFuture":
        """A future that is already done (empty-input fast paths)."""
        future = cls(None, None, lambda: None, lambda raw: None,
                     description=description)
        future.state = cls.DONE
        future._result = result
        future.issued_at = future.settled_at = time.monotonic()
        return future

    # -- lifecycle ---------------------------------------------------------

    def dispatch(self) -> "OperationFuture":
        """Issue the Mercury forward (idempotent; returns self).

        Called at creation by the non-blocking verbs, or later by an
        AsyncEngine once a window slot frees up.  The forward itself
        may be rejected by the fault model; that counts as a normal
        retryable failure and is retired through the policy on wait.
        """
        with self._lock:
            if self.state is not OperationFuture.PENDING:
                return self
            self.state = OperationFuture.INFLIGHT
        self.issued_at = time.monotonic()
        self._reissue()
        return self

    def _reissue(self) -> None:
        try:
            eventual = self._issue()
        except Exception as exc:  # fault model rejected the send itself
            eventual = Eventual()
            eventual.set_exception(exc)
        self._eventual = eventual
        eventual.add_done_callback(self._mark_settled)

    def _mark_settled(self, _eventual) -> None:
        # Runs on whichever thread produced the response; only used for
        # overlap accounting, so a re-issue simply overwrites it.
        self.settled_at = time.monotonic()

    def cancel(self) -> bool:
        """Cancel iff the operation has not been dispatched yet.

        Returns ``True`` on success; a cancelled future's :meth:`wait`
        raises :class:`~repro.errors.OperationCancelled`.  Once the
        forward is on the wire the operation cannot be recalled (the
        provider may already have executed it) and ``cancel`` returns
        ``False``.
        """
        with self._lock:
            if self.state is not OperationFuture.PENDING:
                return False
            self.state = OperationFuture.CANCELLED
            self._exception = OperationCancelled(
                f"operation {self.description or '?'} cancelled before dispatch"
            )
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)
        return True

    # -- inspection --------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.state in (OperationFuture.DONE, OperationFuture.CANCELLED)

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception

    def test(self) -> bool:
        """Non-blocking readiness check.

        Opportunistically drives bounded fabric progress (inline mode),
        and finishes the operation if its raw response has landed.  A
        response whose decode demands a re-issue (resize, retryable
        corruption) is re-issued immediately -- without backoff, that
        only happens on the blocking path -- and ``test`` returns
        ``False`` for this round.
        """
        if self.done:
            return True
        if self.state is OperationFuture.PENDING:
            return False
        if not self._eventual.is_ready:
            self._fabric.poll()
        if not self._eventual.is_ready:
            return False
        try:
            raw = self._eventual._unwrap()
            result = self._finish(raw)
        except _ResizeNeeded:
            self._reissue()
            return False
        except BaseException as exc:  # noqa: BLE001 - routed through policy
            if self._policy.retryable(exc) and (
                    self.retries + 1 < self._policy.max_attempts):
                self.retries += 1
                if self._on_retry is not None:
                    self._on_retry(self.retries, exc, 0.0)
                self._reissue()
                return False
            self._settle(exception=exc, giveup=True)
            return True
        self._settle(result=result)
        return True

    # -- retirement --------------------------------------------------------

    def wait(self, timeout: Optional[float] = None):
        """Block until the operation completes; return its result.

        Retires the response through the client's retry policy: a
        retryable failure re-issues the forward with backoff until the
        policy's attempt/deadline budget runs out, exactly like the
        blocking verbs.  ``timeout`` overrides the policy's per-attempt
        ``rpc_timeout`` for this wait.
        """
        if self.state is OperationFuture.DONE:
            return self._unwrap()
        if self.state is OperationFuture.CANCELLED:
            raise self._exception
        self.dispatch()  # queued future waited on directly: jump the queue
        per_attempt = timeout if timeout is not None else self._policy.rpc_timeout

        def attempt():
            # A loop, not a recursive closure: a closure that names
            # itself is a reference cycle, and would keep the waited
            # future -- its result and its landing buffer -- alive until
            # the cyclic collector runs.
            while True:
                if self._eventual is None:
                    self._reissue()
                try:
                    raw = self._fabric.wait(self._eventual,
                                            timeout=per_attempt)
                    return self._finish(raw)
                except _ResizeNeeded:
                    self._eventual = None  # re-issue at the new size
                except BaseException:
                    self._eventual = None
                    raise

        def on_retry(n, exc, pause):
            self.retries = n
            if self._on_retry is not None:
                self._on_retry(n, exc, pause)

        try:
            result = self._policy.call(attempt, on_retry=on_retry,
                                       on_giveup=self._on_giveup)
        except BaseException as exc:  # noqa: BLE001 - settled, then re-raised
            self._settle(exception=exc)
            raise
        self._settle(result=result)
        return result

    def then(self, callback: Callable[["OperationFuture"], None]
             ) -> "OperationFuture":
        """Run ``callback(self)`` once the future settles (chainable).

        Fires immediately if already settled; otherwise on whichever
        thread completes the future (a ``wait``/``test`` caller or an
        AsyncEngine pump).
        """
        fire = False
        with self._lock:
            if self.done:
                fire = True
            else:
                self._callbacks.append(callback)
        if fire:
            callback(self)
        return self

    def _settle(self, result=None, exception: Optional[BaseException] = None,
                giveup: bool = False) -> None:
        with self._lock:
            if self.done:
                return
            self.state = OperationFuture.DONE
            self._result = result
            self._exception = exception
            callbacks, self._callbacks = self._callbacks, []
        if self.settled_at is None:
            self.settled_at = time.monotonic()
        if giveup and self._on_giveup is not None:
            self._on_giveup(self.retries, exception)
        if exception is not None and _tracing.enabled:
            with _tracing.span("yokan.future.failed", op=self.description) as sp:
                sp.set_tag("error", type(exception).__name__)
                sp.set_tag("retries", self.retries)
        for callback in callbacks:
            callback(self)

    def _unwrap(self):
        if self._exception is not None:
            raise self._exception
        return self._result

    @property
    def result(self):
        """The settled result (only valid once :attr:`done`)."""
        return self._unwrap()

    def overlap_seconds(self, until: float) -> float:
        """Seconds this operation was in flight before ``until``.

        The honest overlap metric: time between the forward going out
        and either the response landing or ``until`` (typically the
        moment the caller started waiting), whichever came first.
        """
        if self.issued_at is None:
            return 0.0
        end = until if self.settled_at is None else min(self.settled_at, until)
        return max(0.0, end - self.issued_at)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"OperationFuture({self.description!r}, state={self.state}, "
                f"retries={self.retries})")
