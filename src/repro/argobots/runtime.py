"""ULTs, pools, execution streams, and the runtime that drives them."""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from _thread import allocate_lock
from collections import deque
from typing import Callable, Iterable, Optional, Union

from repro.errors import ReproError


class _Directive:
    """Base class for objects a ULT may yield to its scheduler."""

    __slots__ = ()


class _YieldDirective(_Directive):
    """Reschedule the ULT at the back of its pool."""

    __slots__ = ()


_ULT_YIELD = _YieldDirective()


def ult_yield() -> _Directive:
    """Directive that cooperatively yields the processor.

    Usage inside a ULT body::

        def body():
            while work_remains():
                do_a_chunk()
                yield ult_yield()
    """
    return _ULT_YIELD


class WaitDirective(_Directive):
    """Suspend the ULT until a waitable signals it.

    Created by synchronization objects (:class:`Eventual`,
    :class:`Mutex`, ...).  ``register`` is called with the suspended ULT
    and must arrange for ``ult.resume(value)`` to be called later.  If
    ``ready()`` is already true the scheduler continues the ULT
    immediately with ``value()``.
    """

    __slots__ = ("_ready", "_value", "_register")

    def __init__(
        self,
        ready: Callable[[], bool],
        value: Callable[[], object],
        register: Callable[["ULT"], None],
    ):
        self._ready = ready
        self._value = value
        self._register = register


_ult_context = threading.local()


def current_ult() -> Optional["ULT"]:
    """The ULT currently executing on this thread, if any."""
    return getattr(_ult_context, "ult", None)


class ULT:
    """A user-level thread.

    ``func`` may be a plain callable (runs to completion in one step) or
    a generator function (may yield directives).  The result (return
    value / ``StopIteration`` value) and any raised exception are
    captured and exposed through :meth:`result`.
    """

    _ids = itertools.count()

    def __init__(self, func: Callable, args: tuple = (), kwargs: Optional[dict] = None,
                 name: Union[str, Callable[[], str], None] = None,
                 priority: int = 0):
        self.ult_id = next(ULT._ids)
        self._name = name
        self.priority = priority
        self._func = func
        self._args = args
        self._kwargs = kwargs or {}
        self._gen = None
        self._started = False
        self._done = False
        self._value = None
        self._exception: Optional[BaseException] = None
        self._send_value = None
        self.pool: Optional["Pool"] = None
        self._done_callbacks: list[Callable[["ULT"], None]] = []

    # -- inspection --------------------------------------------------------

    @property
    def name(self) -> str:
        """The ULT's label, built when first read: a hot spawner passes a
        callable (or nothing) instead of formatting a string per ULT."""
        if not isinstance(self._name, str):
            self._name = (self._name() if self._name is not None
                          else f"ult-{self.ult_id}")
        return self._name

    @property
    def done(self) -> bool:
        return self._done

    def result(self):
        """The ULT's return value; re-raises any exception it raised."""
        if not self._done:
            raise ReproError(f"ULT {self.name} has not completed")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception

    def add_done_callback(self, callback: Callable[["ULT"], None]) -> None:
        if self._done:
            callback(self)
        else:
            self._done_callbacks.append(callback)

    # -- scheduling --------------------------------------------------------

    def resume(self, value=None) -> None:
        """Make the ULT runnable again, delivering ``value`` to its yield."""
        self._send_value = value
        if self.pool is None:
            raise ReproError(f"ULT {self.name} has no pool to resume into")
        self.pool.push(self)

    def _finish(self, value=None, exc: Optional[BaseException] = None) -> None:
        self._done = True
        self._value = value
        self._exception = exc
        callbacks, self._done_callbacks = self._done_callbacks, []
        for callback in callbacks:
            callback(self)

    def step(self) -> None:
        """Run the ULT until it yields, returns, or raises.

        Called only by schedulers.  A yielded :class:`WaitDirective`
        either continues immediately (already ready) or parks the ULT;
        a yield directive re-queues it.
        """
        prev = getattr(_ult_context, "ult", None)
        _ult_context.ult = self
        try:
            while True:
                try:
                    if not self._started:
                        self._started = True
                        result = self._func(*self._args, **self._kwargs)
                        if hasattr(result, "send"):  # generator body
                            self._gen = result
                            directive = self._gen.send(None)
                        else:  # plain callable: ran to completion
                            self._finish(result)
                            return
                    else:
                        if self._gen is None:
                            raise ReproError("resumed a completed non-generator ULT")
                        send_value, self._send_value = self._send_value, None
                        directive = self._gen.send(send_value)
                except StopIteration as stop:
                    self._finish(stop.value)
                    return
                except BaseException as exc:  # noqa: BLE001 - captured for result()
                    self._finish(None, exc)
                    return

                if isinstance(directive, _YieldDirective):
                    self.pool.push(self)
                    return
                if isinstance(directive, WaitDirective):
                    if directive._ready():
                        self._send_value = directive._value()
                        continue
                    directive._register(self)
                    return
                # A bad yield is the ULT's bug, not the scheduler's: record
                # it as the ULT's failure so result() reports it.
                self._finish(
                    None,
                    ReproError(
                        f"ULT {self.name} yielded a non-directive: {directive!r}"
                    ),
                )
                return
        finally:
            _ult_context.ult = prev


class Pool:
    """A queue of runnable ULTs.

    ``kind`` is ``"fifo"`` (default) or ``"prio"`` (smaller ``priority``
    first, FIFO among equals).  Pools are thread-safe so that threaded
    xstreams and external producers can share them: pushes and the heap
    sit behind a lock, the fifo queue is a ``deque`` popped without one
    (``popleft`` is atomic), and a push wakes one parked xstream of
    those that serve the pool (see :class:`ExecutionStream`).
    """

    def __init__(self, name: str = "pool", kind: str = "fifo"):
        if kind not in ("fifo", "prio"):
            raise ValueError(f"unknown pool kind {kind!r}")
        self.name = name
        self.kind = kind
        self._lock = threading.Lock()
        self._fifo: deque[ULT] = deque()
        self._heap: list[tuple[int, int, ULT]] = []
        self._seq = itertools.count()
        self._pushed_total = 0
        #: the execution streams draining this pool (whom a push wakes)
        self._xstreams: list["ExecutionStream"] = []

    def __len__(self) -> int:
        return len(self._fifo) + len(self._heap)

    def __bool__(self) -> bool:
        # A pool object is always truthy, even when empty -- falling back
        # to __len__ here turns "pool or default" into a silent bug.
        return True

    @property
    def pushed_total(self) -> int:
        """Total number of pushes ever (scheduling diagnostics)."""
        return self._pushed_total

    def push(self, ult: ULT) -> None:
        ult.pool = self
        with self._lock:
            if self.kind == "fifo":
                self._fifo.append(ult)
            else:
                heapq.heappush(self._heap, (ult.priority, next(self._seq), ult))
            self._pushed_total += 1
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
            if self.kind == "fifo":
                return self._fifo.popleft() if self._fifo else None
            if self._heap:
                with self._lock:
                    return heapq.heappop(self._heap)[2]
        except IndexError:  # another xstream took the last one first
            pass
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
        ult.step()
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
                ult.step()
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

    The inline scheduler steps xstreams round-robin, giving a fully
    deterministic interleaving -- the property that makes the RPC stack
    and the HEPnOS tests reproducible.
    """

    def __init__(self, threaded: bool = False):
        self.threaded = threaded
        self.pools: dict[str, Pool] = {}
        self.xstreams: dict[str, ExecutionStream] = {}
        self._started = False
        # Snapshot used by progress_once: a ULT step may create new
        # xstreams (e.g. a fault-schedule action restarting a provider),
        # which must not mutate the dict mid-iteration.
        self._xstream_cache: tuple[ExecutionStream, ...] = ()

    # -- construction --------------------------------------------------------

    def create_pool(self, name: str, kind: str = "fifo") -> Pool:
        if name in self.pools:
            raise ReproError(f"pool {name!r} already exists")
        pool = Pool(name, kind)
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

    def default_pool(self) -> Pool:
        if "__primary__" not in self.pools:
            pool = self.create_pool("__primary__")
            self.create_xstream("__primary__", [pool])
        return self.pools["__primary__"]

    # -- spawning --------------------------------------------------------

    def spawn(self, func: Callable, *args, pool: Optional[Pool] = None,
              name: Optional[str] = None, priority: int = 0, **kwargs) -> ULT:
        """Create a ULT running ``func`` and queue it."""
        ult = ULT(func, args, kwargs, name=name, priority=priority)
        target = pool if pool is not None else self.default_pool()
        target.push(ult)
        return ult

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
        """Inline mode: run one ULT step somewhere. Returns False if idle."""
        for xstream in self._xstream_cache:
            if xstream.step():
                return True
        return False

    def run_until(self, predicate: Callable[[], bool], max_steps: int = 10_000_000) -> None:
        """Drive the inline scheduler until ``predicate()`` holds.

        Raises if the runtime goes idle (deadlock) or ``max_steps`` is
        exceeded before the predicate becomes true.
        """
        steps = 0
        while not predicate():
            if self.threaded:
                # Threads make progress on their own; just spin-wait politely.
                time.sleep(0.0005)
                steps += 1
            else:
                if not self.progress_once():
                    raise ReproError(
                        "runtime idle but condition not met (deadlock?)"
                    )
                steps += 1
            if steps > max_steps:
                raise ReproError("run_until exceeded max_steps")

    def run_until_idle(self, max_steps: int = 10_000_000) -> int:
        """Drive the inline scheduler until every pool is empty."""
        steps = 0
        while self.progress_once():
            steps += 1
            if steps > max_steps:
                raise ReproError("run_until_idle exceeded max_steps")
        return steps

    def join(self, ult: ULT):
        """Wait for ``ult`` to finish and return its result."""
        self.run_until(lambda: ult.done)
        return ult.result()
