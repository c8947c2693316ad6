"""Communicators, point-to-point messaging, and collectives."""

from __future__ import annotations

import operator
import threading
import time
from functools import reduce as _functools_reduce
from typing import Any, Callable, Optional

from repro.errors import MPIError

ANY_SOURCE = -1
ANY_TAG = -1

# Reduction operators (subset of the MPI predefined ops).
SUM = operator.add
PROD = operator.mul
MAX = max
MIN = min

#: Collective operations use this reserved tag space (< _COLL_TAG_BASE is
#: invalid for user messages).
_COLL_TAG_BASE = -1000


def Wtime() -> float:
    """MPI_Wtime: monotonic wall-clock seconds."""
    return time.monotonic()


class _Mailbox:
    """Per-rank inbox with (source, tag) matching."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._messages: list[tuple[int, int, Any]] = []

    def put(self, source: int, tag: int, payload: Any) -> None:
        with self._cond:
            self._messages.append((source, tag, payload))
            self._cond.notify_all()

    def take(self, source: int, tag: int, timeout: Optional[float]) -> tuple[int, int, Any]:
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                for i, (src, mtag, payload) in enumerate(self._messages):
                    if source not in (ANY_SOURCE, src):
                        continue
                    if tag not in (ANY_TAG, mtag):
                        continue
                    del self._messages[i]
                    return src, mtag, payload
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._cond.wait(remaining):
                        raise MPIError(
                            f"recv(source={source}, tag={tag}) timed out"
                        )


class _Backend:
    """Shared state of one communicator: one mailbox per rank."""

    def __init__(self, size: int):
        self.size = size
        self.mailboxes = [_Mailbox() for _ in range(size)]


class Communicator:
    """One rank's view of a communicator (cf. ``MPI.COMM_WORLD``)."""

    def __init__(self, backend: _Backend, rank: int):
        self._backend = backend
        self._rank = rank
        # Per-rank collective sequence number; all ranks execute
        # collectives in the same order, so sequences align.
        self._coll_seq = 0

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._backend.size

    # -- point-to-point ------------------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        if not 0 <= dest < self.size:
            raise MPIError(f"dest {dest} out of range for size {self.size}")
        if tag < 0:
            raise MPIError("user tags must be non-negative")
        self._backend.mailboxes[dest].put(self._rank, tag, obj)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             timeout: Optional[float] = 60.0) -> Any:
        _, _, payload = self._backend.mailboxes[self._rank].take(
            source, tag, timeout
        )
        return payload

    def recv_with_status(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
                         timeout: Optional[float] = 60.0) -> tuple[Any, int, int]:
        """Returns (payload, source, tag)."""
        src, mtag, payload = self._backend.mailboxes[self._rank].take(
            source, tag, timeout
        )
        return payload, src, mtag

    def _coll_send(self, obj: Any, dest: int, seq: int) -> None:
        self._backend.mailboxes[dest].put(self._rank, _COLL_TAG_BASE - seq, obj)

    def _coll_recv(self, source: int, seq: int) -> Any:
        _, _, payload = self._backend.mailboxes[self._rank].take(
            source, _COLL_TAG_BASE - seq, None
        )
        return payload

    # -- collectives --------------------------------------------------------

    def barrier(self) -> None:
        """Dissemination barrier over point-to-point messages."""
        seq = self._coll_seq
        self._coll_seq += 1
        distance = 1
        while distance < self.size:
            dest = (self._rank + distance) % self.size
            src = (self._rank - distance) % self.size
            self._coll_send(None, dest, seq)
            self._coll_recv(src, seq)
            distance *= 2

    def bcast(self, obj: Any = None, root: int = 0) -> Any:
        seq = self._coll_seq
        self._coll_seq += 1
        if self._rank == root:
            for dest in range(self.size):
                if dest != root:
                    self._coll_send(obj, dest, seq)
            return obj
        return self._coll_recv(root, seq)

    def gather(self, obj: Any, root: int = 0) -> Optional[list]:
        seq = self._coll_seq
        self._coll_seq += 1
        if self._rank == root:
            out: list[Any] = [None] * self.size
            out[root] = obj
            for _ in range(self.size - 1):
                _src, tag, payload = self._backend.mailboxes[self._rank].take(
                    ANY_SOURCE, _COLL_TAG_BASE - seq, None
                )
                src_rank, value = payload
                out[src_rank] = value
            return out
        self._coll_send((self._rank, obj), root, seq)
        return None

    def reduce(self, obj: Any, op: Callable[[Any, Any], Any] = SUM,
               root: int = 0) -> Optional[Any]:
        gathered = self.gather(obj, root=root)
        if self._rank == root:
            return _functools_reduce(op, gathered)
        return None

    def allreduce(self, obj: Any, op: Callable[[Any, Any], Any] = SUM) -> Any:
        return self.bcast(self.reduce(obj, op=op, root=0), root=0)



def mpirun(fn: Callable[..., Any], size: int, *args: Any,
           timeout: Optional[float] = 300.0, **kwargs: Any) -> list:
    """Run ``fn(comm, *args, **kwargs)`` on ``size`` rank threads.

    Returns the per-rank return values.  If any rank raises, the first
    failure is re-raised (after all ranks finish or the timeout lapses).
    """
    if size <= 0:
        raise MPIError("size must be positive")
    backend = _Backend(size)
    results: list[Any] = [None] * size
    errors: list[tuple[int, BaseException]] = []

    def run_rank(rank: int) -> None:
        comm = Communicator(backend, rank)
        try:
            results[rank] = fn(comm, *args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            errors.append((rank, exc))

    threads = [
        threading.Thread(target=run_rank, args=(rank,), name=f"mpi-rank-{rank}",
                         daemon=True)
        for rank in range(size)
    ]
    for thread in threads:
        thread.start()
    deadline = None if timeout is None else time.monotonic() + timeout
    for thread in threads:
        remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
        thread.join(remaining)
        if thread.is_alive():
            raise MPIError(
                f"mpirun timed out after {timeout}s (rank deadlock?)"
            )
    if errors:
        rank, exc = min(errors, key=lambda e: e[0])
        raise MPIError(f"rank {rank} failed: {exc!r}") from exc
    return results
