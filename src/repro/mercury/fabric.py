"""The fabric: the namespace and transport connecting Mercury engines.

A :class:`Fabric` owns one Argobots :class:`~repro.argobots.Runtime`
shared by every engine attached to it (one "simulated world").  RPC
delivery pushes a handler ULT onto the target engine's pool; the caller
then drives the shared runtime until its response is ready (inline
mode) or blocks on an event (threaded mode).

The fabric is also where transport behaviour is modeled:

- :class:`FabricStats` counts RPCs and bytes by kind (eager RPC traffic
  vs bulk/RDMA traffic) plus per-failure-kind injection counts, which
  the performance model, the batching ablation, and the chaos reports
  read;
- a :class:`FaultModel` may drop, delay, or corrupt messages.  The
  paper reports crashes caused by oversaturating the Aries NIC
  injection bandwidth; :class:`InjectionFaultModel` reproduces that
  failure mode, and :mod:`repro.faults` provides the full catalog
  (probabilistic drops, partitions, latency, corruption, seeded
  schedules with provider crash/restart actions).
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from repro.argobots import Runtime
from repro.errors import AddressError, NetworkFailure, RPCTimeout
from repro.mercury.address import Address

if TYPE_CHECKING:  # pragma: no cover
    from repro.mercury.engine import Engine


@dataclass
class FabricStats:
    """Cumulative traffic counters, updated on every delivery."""

    rpc_count: int = 0
    rpc_bytes: int = 0
    response_bytes: int = 0
    bulk_transfers: int = 0
    bulk_bytes: int = 0
    dropped: int = 0
    corrupted: int = 0
    delayed: int = 0
    delay_seconds: float = 0.0
    timeouts: int = 0
    per_pair: dict = field(default_factory=lambda: defaultdict(int))
    #: injected-failure totals keyed by kind ("drop", "corrupt",
    #: "delay", "timeout") -- the chaos report reads this.
    failures: dict = field(default_factory=lambda: defaultdict(int))

    def record_rpc(self, src: Address, dst: Address, nbytes: int) -> None:
        self.rpc_count += 1
        self.rpc_bytes += nbytes
        self.per_pair[(src.node, dst.node)] += nbytes

    def record_bulk(self, src: Address, dst: Address, nbytes: int) -> None:
        self.bulk_transfers += 1
        self.bulk_bytes += nbytes
        self.per_pair[(src.node, dst.node)] += nbytes

    def record_failure(self, kind: str) -> None:
        self.failures[kind] += 1

    def record_delay(self, seconds: float) -> None:
        self.delayed += 1
        self.delay_seconds += seconds
        self.failures["delay"] += 1

    def record_timeout(self) -> None:
        self.timeouts += 1
        self.failures["timeout"] += 1

    @property
    def total_bytes(self) -> int:
        return self.rpc_bytes + self.response_bytes + self.bulk_bytes

    def reset(self) -> None:
        self.rpc_count = 0
        self.rpc_bytes = 0
        self.response_bytes = 0
        self.bulk_transfers = 0
        self.bulk_bytes = 0
        self.dropped = 0
        self.corrupted = 0
        self.delayed = 0
        self.delay_seconds = 0.0
        self.timeouts = 0
        self.per_pair.clear()
        self.failures.clear()


class FaultModel:
    """Transport fault hooks; the default injects nothing.

    Subclasses may drop a message (:meth:`should_drop`), delay it
    (:meth:`latency`, seconds to inject), or damage its payload in
    flight (:meth:`corrupt`, returning the mutated bytes or ``None`` for
    no corruption).  The catalog of concrete models lives in
    :mod:`repro.faults`.
    """

    def should_drop(self, src: Address, dst: Address, nbytes: int) -> bool:
        return False

    def latency(self, src: Address, dst: Address, nbytes: int) -> float:
        return 0.0

    def corrupt(self, src: Address, dst: Address,
                payload: bytes) -> Optional[bytes]:
        return None


class InjectionFaultModel(FaultModel):
    """Drop traffic when a node's instantaneous injection rate is exceeded.

    Models the Aries NIC failure mode from the paper (section IV-E,
    footnote 7): bursts exceeding the per-node injection budget within a
    sliding window cause the transfer to fail.
    """

    def __init__(self, bytes_per_window: int, window_seconds: float = 0.1,
                 clock=time.monotonic):
        if bytes_per_window <= 0:
            raise ValueError("bytes_per_window must be positive")
        self.bytes_per_window = bytes_per_window
        self.window_seconds = window_seconds
        self._clock = clock
        self._windows: dict[str, tuple[float, int]] = {}
        self._lock = threading.Lock()

    def should_drop(self, src: Address, dst: Address, nbytes: int) -> bool:
        now = self._clock()
        with self._lock:
            start, used = self._windows.get(src.node, (now, 0))
            if now - start > self.window_seconds:
                start, used = now, 0
            used += nbytes
            self._windows[src.node] = (start, used)
            return used > self.bytes_per_window


class Fabric:
    """Connects engines; owns the shared ULT runtime.

    ``threaded=False`` (default) gives the deterministic inline
    scheduler; ``threaded=True`` runs each engine's xstreams on OS
    threads, which the multi-threaded MPI client workflows use.
    """

    def __init__(self, protocol: str = "sm", threaded: bool = False,
                 fault_model: Optional[FaultModel] = None,
                 idle_timeout: float = 60.0):
        self.protocol = protocol
        self.runtime = Runtime(threaded=threaded)
        self.stats = FabricStats()
        self.fault_model = fault_model or FaultModel()
        #: Seconds the inline scheduler may stay idle while a response
        #: is outstanding before :meth:`wait` raises :class:`RPCTimeout`
        #: (the time-based replacement for the old fixed spin budget).
        self.idle_timeout = idle_timeout
        #: address uri -> engine
        self._engines: dict[str, "Engine"] = {}
        self._lock = threading.Lock()
        # Serializes inline progress when several OS threads (MPI ranks)
        # wait on responses concurrently.  Re-entrant: a handler that
        # runs inside progress_once and waits on an RPC of its own
        # drives the scheduler from the thread that already holds it.
        self._progress_lock = threading.RLock()

    # -- membership --------------------------------------------------------

    def register_engine(self, engine: "Engine") -> None:
        with self._lock:
            if engine.address.uri in self._engines:
                raise AddressError(f"address {engine.address} already in use")
            self._engines[engine.address.uri] = engine

    def deregister_engine(self, engine: "Engine") -> None:
        with self._lock:
            self._engines.pop(engine.address.uri, None)

    def lookup(self, address) -> "Engine":
        if address.__class__ is str:
            address = Address.parse(address)
        # A dict read is atomic; the lock orders only the writers.
        engine = self._engines.get(address.uri)
        if engine is None:
            raise AddressError(f"no engine at {address}")
        return engine

    @property
    def addresses(self) -> list[Address]:
        with self._lock:
            return sorted(e.address for e in self._engines.values())

    # -- transport ---------------------------------------------------------

    def check_send(self, src: Address, dst: Address, nbytes: int) -> None:
        """Account for a message and apply the fault model."""
        model = self.fault_model
        if model.__class__ is FaultModel:
            return  # the stock model's hooks inject nothing
        if model.should_drop(src, dst, nbytes):
            self.stats.dropped += 1
            self.stats.record_failure("drop")
            raise NetworkFailure(
                f"fabric dropped {nbytes}B {src} -> {dst} "
                "(injection bandwidth oversaturated)"
            )
        delay = model.latency(src, dst, nbytes)
        if delay > 0.0:
            self.stats.record_delay(delay)
            time.sleep(delay)

    def corrupt_payload(self, src: Address, dst: Address,
                        payload: bytes) -> bytes:
        """Give the fault model a chance to damage ``payload`` in flight."""
        model = self.fault_model
        mutated = (None if model.__class__ is FaultModel
                   else model.corrupt(src, dst, payload))
        if mutated is None:
            return payload
        self.stats.corrupted += 1
        self.stats.record_failure("corrupt")
        return mutated

    # -- progress ---------------------------------------------------------

    def wait(self, eventual, timeout: Optional[float] = None):
        """Drive progress until ``eventual`` is ready; return its value.

        In threaded mode the xstream threads make progress, so this just
        blocks.  In inline mode the calling thread becomes the scheduler;
        multiple concurrent callers take turns under a progress lock,
        which a handler waiting from inside the scheduler re-enters.

        ``timeout`` bounds the total wait; the fabric's
        :attr:`idle_timeout` bounds how long the inline scheduler may
        stay idle (no runnable work anywhere) with the response still
        outstanding.  Both raise :class:`~repro.errors.RPCTimeout`.
        """
        if self.runtime.threaded:
            if not eventual.wait_blocking(timeout):
                self.stats.record_timeout()
                raise RPCTimeout(f"no response within {timeout:.3f}s")
            return eventual._unwrap()
        deadline = None if timeout is None else time.monotonic() + timeout
        idle_since = None
        spins = 0
        while not eventual.is_ready:
            if deadline is not None and time.monotonic() >= deadline:
                self.stats.record_timeout()
                raise RPCTimeout(f"no response within {timeout:.3f}s")
            with self._progress_lock:
                if eventual.is_ready:
                    break
                progressed = self.runtime.progress_once()
            if progressed:
                idle_since = None
                continue
            # Another thread may be about to publish work; give it a
            # bounded grace period before declaring deadlock.
            now = time.monotonic()
            if idle_since is None:
                idle_since = now
            elif now - idle_since > self.idle_timeout:
                self.stats.record_timeout()
                raise RPCTimeout(
                    f"fabric idle for {self.idle_timeout:.1f}s while "
                    "waiting for a response (deadlock?)"
                )
            spins += 1
            if spins % 1000 == 0:
                time.sleep(0.0001)
        return eventual._unwrap()

    def poll(self, max_steps: int = 64) -> bool:
        """Make bounded, non-blocking progress; return whether any ran.

        In threaded mode the xstream threads already make progress, so
        this is a no-op returning ``False``.  In inline mode it steps
        the scheduler up to ``max_steps`` times (skipping entirely if
        another thread currently holds the progress lock), which lets
        non-blocking callers -- :meth:`OperationFuture.test
        <repro.yokan.OperationFuture.test>` in particular -- advance
        outstanding RPCs without committing to a blocking wait.
        """
        if self.runtime.threaded:
            return False
        if not self._progress_lock.acquire(blocking=False):
            return False
        try:
            progressed = False
            for _ in range(max_steps):
                if not self.runtime.progress_once():
                    break
                progressed = True
            return progressed
        finally:
            self._progress_lock.release()

    def flush(self) -> None:
        """Run the inline scheduler until every pool is drained."""
        if not self.runtime.threaded:
            with self._progress_lock:
                while self.runtime.progress_once():
                    pass
