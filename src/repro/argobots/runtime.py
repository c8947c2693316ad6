"""ULTs, pools, execution streams, and the runtime that drives them."""

from __future__ import annotations

import threading
from _thread import allocate_lock
from collections import deque
from typing import Callable, Iterable, Optional

from repro.errors import ReproError


class ULT:
    """A user-level thread: one run-to-completion task.

    An execution stream pops it from its pool and calls :meth:`run`
    once: ``func(*args)`` runs to its end, then ``done(value, None)``
    gets what it returned, or ``done(None, exc)`` what it raised.
    """

    __slots__ = ("func", "args", "done")

    def __init__(self, func: Callable, args: tuple,
                 done: Callable[[object, Optional[BaseException]], None]):
        self.func = func
        self.args = args
        self.done = done

    def run(self) -> None:
        try:
            value = self.func(*self.args)
        except BaseException as exc:  # noqa: BLE001 - handed to done
            self.done(None, exc)
            return
        self.done(value, None)


class Pool:
    """A FIFO queue of runnable ULTs (Argobots' ``ABT_POOL_FIFO``).

    Threaded xstreams and external producers share it without a lock:
    ``append`` and ``popleft`` on a ``deque`` are atomic, and a push
    wakes one parked xstream of those that serve the pool (see
    :class:`ExecutionStream`).
    """

    def __init__(self, name: str = "pool"):
        self.name = name
        self._fifo: deque[ULT] = deque()
        #: the execution streams draining this pool (whom a push wakes)
        self._xstreams: list["ExecutionStream"] = []

    def push(self, ult: ULT) -> None:
        self._fifo.append(ult)
        # Queue first, then look for a sleeper: an xstream raises
        # ``_parked`` *before* it scans its pools (each a single store or
        # load, which the interpreter lock orders), so either it sees
        # this ULT or this push sees the flag.
        for xstream in self._xstreams:
            if xstream._parked:
                xstream._wake()
                return

    def pop(self) -> Optional[ULT]:
        try:
            return self._fifo.popleft() if self._fifo else None
        except IndexError:  # another xstream took the last one first
            return None


class ExecutionStream:
    """An execution stream draining one or more pools.

    In inline mode, :meth:`step` is invoked by the owning
    :class:`Runtime`; in threaded mode :meth:`start` spawns an OS thread
    running the same scheduler loop.  An idle thread *parks*: it blocks
    on ``_gate``, a raw lock it holds itself, until a push to any of its
    pools -- or :meth:`join` -- releases it.  The same held-lock
    hand-off carries the answer back (:class:`~repro.argobots.Eventual`).
    """

    def __init__(self, name: str, pools: Iterable[Pool]):
        self.name = name
        self.pools = list(pools)
        if not self.pools:
            raise ValueError("an execution stream needs at least one pool")
        self._rr = 0
        self._thread: Optional[threading.Thread] = None
        self._stopping = False
        self._parked = False
        self._gate = allocate_lock()
        #: ULTs this stream has run (only its own thread writes it)
        self.steps_executed = 0
        for pool in self.pools:
            pool._xstreams.append(self)

    def _next(self) -> Optional[ULT]:
        """Pop the next runnable ULT, round-robin over the pools."""
        pools = self.pools
        for offset in range(len(pools)):
            ult = pools[(self._rr + offset) % len(pools)].pop()
            if ult is not None:
                self._rr = (self._rr + offset + 1) % len(pools)
                return ult
        return None

    def step(self) -> bool:
        """Pop and run one ULT; return whether any work was found."""
        ult = self._next()
        if ult is None:
            return False
        self.steps_executed += 1
        ult.run()
        return True

    # -- threaded mode -------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            raise ReproError(f"xstream {self.name} already started")
        self._stopping = False
        self._gate = allocate_lock()
        self._gate.acquire()
        self._thread = threading.Thread(target=self._loop, name=self.name, daemon=True)
        self._thread.start()

    def _wake(self) -> None:
        self._parked = False
        try:
            self._gate.release()
        except RuntimeError:  # already released: a wake is pending
            pass

    def _loop(self) -> None:
        gate = self._gate
        while not self._stopping:
            self._parked = True
            ult = self._next()
            if ult is None:
                gate.acquire()  # until a push or join releases it
            else:
                self._parked = False
                self.steps_executed += 1
                ult.run()
        self._parked = False

    def stop(self) -> None:
        """Ask the thread to exit after the ULT it is running, waking it
        if parked; :meth:`join` waits for it."""
        self._stopping = True
        self._wake()

    def join(self) -> None:
        if self._thread is not None:
            self.stop()
            self._thread.join()
            self._thread = None


class Runtime:
    """Owns pools and xstreams; in inline mode it is also the scheduler.

    The inline scheduler is round-robin over the xstreams: each step
    runs one ULT of the first xstream with work, in creation order,
    after the one that ran last.  That gives a fully deterministic
    interleaving -- the property that makes the RPC stack and the
    HEPnOS tests reproducible -- in which no xstream waits for another
    to run dry.  Every ULT runs to completion, so that interleaving is
    pool and xstream order alone.
    """

    def __init__(self, threaded: bool = False):
        self.threaded = threaded
        self.pools: dict[str, Pool] = {}
        self.xstreams: dict[str, ExecutionStream] = {}
        self._started = False
        # Snapshot used by progress_once, rotated to start after the
        # xstream that ran last: a ULT may create new xstreams (e.g. a
        # fault-schedule action restarting a provider), which must not
        # mutate the dict mid-iteration.
        self._xstream_cache: tuple[ExecutionStream, ...] = ()

    # -- construction --------------------------------------------------------

    def create_pool(self, name: str) -> Pool:
        if name in self.pools:
            raise ReproError(f"pool {name!r} already exists")
        pool = Pool(name)
        self.pools[name] = pool
        return pool

    def create_xstream(self, name: str, pools: Iterable[Pool]) -> ExecutionStream:
        if name in self.xstreams:
            raise ReproError(f"xstream {name!r} already exists")
        xstream = ExecutionStream(name, pools)
        self.xstreams[name] = xstream
        self._xstream_cache = tuple(self.xstreams.values())
        if self.threaded and self._started:
            xstream.start()
        return xstream

    # -- driving --------------------------------------------------------

    def start(self) -> None:
        """Start OS threads for all xstreams (threaded mode only)."""
        if not self.threaded:
            return
        self._started = True
        for xstream in self.xstreams.values():
            xstream.start()

    def shutdown(self) -> None:
        # Stop them all, then join: none waits out the one before it.
        for xstream in self._xstream_cache:
            xstream.stop()
        for xstream in self._xstream_cache:
            xstream.join()
        self._started = False

    def progress_once(self) -> bool:
        """Inline mode: run one ULT somewhere. Returns False if idle."""
        xstreams = self._xstream_cache
        for k, xstream in enumerate(xstreams, 1):
            # Most xstreams are idle: pass one by without a call.
            for pool in xstream.pools:
                if pool._fifo and xstream.step():
                    if self._xstream_cache is xstreams:  # none was created
                        self._xstream_cache = xstreams[k:] + xstreams[:k]
                    return True
        return False
