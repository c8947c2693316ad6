"""Synchronization primitives for ULTs: Eventual, Mutex, Barrier.

Each primitive produces :class:`~repro.argobots.runtime.WaitDirective`
objects: a ULT suspends with ``value = yield ev.wait()``.  External
(non-ULT) code uses the blocking accessors, which drive the runtime's
inline scheduler (or sleep-wait in threaded mode).
"""

from __future__ import annotations

import threading
from _thread import allocate_lock
from collections import deque
from typing import Optional

from repro.errors import ReproError
from repro.argobots.runtime import Runtime, ULT, WaitDirective


class Eventual:
    """A one-shot, write-once value container (Argobots ``ABT_eventual``).

    The producer calls :meth:`set` (or :meth:`set_exception`); consumers
    either ``yield ev.wait()`` from a ULT or call :meth:`get` from
    ordinary code with the runtime to drive.  OS threads block in
    :meth:`wait_blocking` on ``_gate``, a raw lock the eventual holds
    from birth until it is set -- the hand-off a parked xstream uses
    (:class:`~repro.argobots.ExecutionStream`), in the other direction.
    """

    def __init__(self) -> None:
        self._lock = allocate_lock()
        self._gate = allocate_lock()
        self._gate.acquire()
        #: whether the value is there; written once, by :meth:`set`
        self.is_ready = False
        self._value = None
        self._waiters: list[ULT] = []
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
            waiters, self._waiters = self._waiters, ()
            callbacks, self._done_callbacks = self._done_callbacks, ()
        self._gate.release()
        for ult in waiters:
            ult.resume(value)
        for callback in callbacks:
            callback(self)

    def set_exception(self, exc: BaseException) -> None:
        # Held, and handed to waiting ULTs, as the token that raises
        # where it is unwrapped.
        self.set(_Raiser(exc))

    def _unwrap(self):
        value = self._value
        if value.__class__ is _Raiser:
            raise value.exception
        return value

    def wait(self) -> WaitDirective:
        """Directive for ULTs: ``value = yield ev.wait()``."""

        def register(ult: ULT) -> None:
            with self._lock:
                if self.is_ready:
                    resume_now = True
                else:
                    self._waiters.append(ult)
                    resume_now = False
            if resume_now:
                ult.resume(self._value)

        return WaitDirective(
            ready=lambda: self.is_ready,
            value=lambda: self._value,
            register=register,
        )

    def wait_blocking(self, timeout: Optional[float] = None) -> bool:
        """Block this OS thread until set, at most ``timeout`` seconds;
        return whether the value is there.  Any number of threads may
        wait: each passes the gate on to the next."""
        if not self.is_ready and self._gate.acquire(
                timeout=-1 if timeout is None else max(0.0, timeout)):
            self._gate.release()
        return self.is_ready

    def get(self, runtime: Runtime):
        """Blocking accessor for non-ULT callers."""
        if runtime.threaded:
            self.wait_blocking()
        else:
            runtime.run_until(lambda: self.is_ready)
        return self._unwrap()


class _Raiser:
    """Sentinel delivered to a waiting ULT when an eventual failed.

    ``unwrap_wait_result`` turns it back into a raised exception at the
    resumption site.
    """

    __slots__ = ("exception",)

    def __init__(self, exception: BaseException):
        self.exception = exception


def unwrap_wait_result(value):
    """Raise if ``value`` is an exception token, else return it.

    ULTs that wait on eventuals which may fail should filter the yielded
    value through this helper::

        result = unwrap_wait_result((yield ev.wait()))
    """
    if isinstance(value, _Raiser):
        raise value.exception
    return value


def ult_join(ult: ULT) -> WaitDirective:
    """Directive: suspend until another ULT finishes (``ABT_thread_join``).

    Usage::

        child = runtime.spawn(work)
        result = unwrap_wait_result((yield ult_join(child)))
    """

    def token():
        if ult.exception is not None:
            return _Raiser(ult.exception)
        return ult._value

    def register(waiter: ULT) -> None:
        ult.add_done_callback(lambda _finished: waiter.resume(token()))

    return WaitDirective(ready=lambda: ult.done, value=token,
                         register=register)


class Mutex:
    """A cooperative mutex (FIFO handoff).

    ULT usage::

        yield mutex.lock()
        try:
            ...critical section...
        finally:
            mutex.unlock()
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._locked = False
        self._waiters: deque[ULT] = deque()

    @property
    def locked(self) -> bool:
        return self._locked

    def lock(self) -> WaitDirective:
        def ready() -> bool:
            # Opportunistic acquire: called by the scheduler right before
            # deciding whether to suspend.
            with self._lock:
                if not self._locked:
                    self._locked = True
                    return True
                return False

        def register(ult: ULT) -> None:
            with self._lock:
                if not self._locked:
                    self._locked = True
                    acquired = True
                else:
                    self._waiters.append(ult)
                    acquired = False
            if acquired:
                ult.resume(None)

        return WaitDirective(ready=ready, value=lambda: None, register=register)

    def try_lock(self) -> bool:
        with self._lock:
            if self._locked:
                return False
            self._locked = True
            return True

    def unlock(self) -> None:
        with self._lock:
            if not self._locked:
                raise ReproError("unlock of an unlocked mutex")
            if self._waiters:
                nxt = self._waiters.popleft()
                # Hand the lock directly to the next waiter (stays locked).
            else:
                nxt = None
                self._locked = False
        if nxt is not None:
            nxt.resume(None)


class Barrier:
    """A reusable ULT barrier for ``parties`` participants."""

    def __init__(self, parties: int):
        if parties <= 0:
            raise ValueError("parties must be positive")
        self.parties = parties
        self._lock = threading.Lock()
        self._count = 0
        self._generation = 0
        self._waiters: deque[ULT] = deque()

    def wait(self) -> WaitDirective:
        """Directive: ``yield barrier.wait()``; value is the generation."""
        state = {}

        def register(ult: ULT) -> None:
            release = None
            with self._lock:
                generation = self._generation
                self._count += 1
                if self._count == self.parties:
                    self._count = 0
                    self._generation += 1
                    release, self._waiters = list(self._waiters), deque()
                    state["gen"] = generation
                else:
                    self._waiters.append(ult)
            if release is not None:
                for waiter in release:
                    waiter.resume(generation)
                ult.resume(generation)

        return WaitDirective(
            ready=lambda: False,  # always suspend; register decides release
            value=lambda: state.get("gen"),
            register=register,
        )
