"""The one synchronization primitive the service uses: Eventual."""

from __future__ import annotations

from _thread import allocate_lock
from typing import Optional

from repro.errors import ReproError


class Eventual:
    """A one-shot, write-once value container (Argobots ``ABT_eventual``).

    The producer calls :meth:`set` (or :meth:`set_exception`); a
    consumer registers a callback (:meth:`add_done_callback`) or blocks
    its OS thread in :meth:`wait_blocking` on ``_gate``, a raw lock the
    eventual holds from birth until it is set -- the hand-off a parked
    xstream uses (:class:`~repro.argobots.ExecutionStream`), in the
    other direction.  On the inline runtime, :meth:`Fabric.wait
    <repro.mercury.Fabric.wait>` drives the scheduler until
    :attr:`is_ready` instead.
    """

    def __init__(self) -> None:
        self._lock = allocate_lock()
        self._gate = allocate_lock()
        self._gate.acquire()
        #: whether the value is there; written once, by :meth:`set`
        self.is_ready = False
        self._value = None
        self._done_callbacks: list = []

    def add_done_callback(self, callback) -> None:
        """Run ``callback(eventual)`` once the value is set.

        Fires immediately if the eventual is already ready.  Callbacks
        run on whichever thread calls :meth:`set` /
        :meth:`set_exception`, so they must be cheap and non-blocking
        (the async I/O layer uses them to timestamp completions and
        advance its in-flight window).
        """
        with self._lock:
            if not self.is_ready:
                self._done_callbacks.append(callback)
                return
        callback(self)

    def set(self, value=None) -> None:
        with self._lock:
            if self.is_ready:
                raise ReproError("eventual already set")
            self.is_ready = True
            self._value = value
            callbacks, self._done_callbacks = self._done_callbacks, ()
        self._gate.release()
        for callback in callbacks:
            callback(self)

    def set_exception(self, exc: BaseException) -> None:
        # Held as the token that raises where it is unwrapped.
        self.set(_Raiser(exc))

    def _unwrap(self):
        value = self._value
        if value.__class__ is _Raiser:
            raise value.exception
        return value

    def wait_blocking(self, timeout: Optional[float] = None) -> bool:
        """Block this OS thread until set, at most ``timeout`` seconds;
        return whether the value is there.  Any number of threads may
        wait: each passes the gate on to the next."""
        if not self.is_ready and self._gate.acquire(
                timeout=-1 if timeout is None else max(0.0, timeout)):
            self._gate.release()
        return self.is_ready


class _Raiser:
    """The value an eventual holds when it failed: :meth:`Eventual._unwrap`
    raises its exception."""

    __slots__ = ("exception",)

    def __init__(self, exception: BaseException):
        self.exception = exception
