"""The backend interface every Yokan storage engine implements."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Tuple

from repro.errors import AddressError, ConfigError, DatabaseClosed, KeyNotFound

#: Registered backend kinds, populated by :func:`register_backend`.
BACKEND_KINDS: dict[str, type] = {}


def register_backend(kind: str):
    """Class decorator associating a backend class with its config name."""

    def decorate(cls: type) -> type:
        BACKEND_KINDS[kind] = cls
        return cls

    return decorate


@dataclass
class DurabilityStats:
    """What a backend's record log did: the one shape every backend's
    :meth:`Backend.durability_stats` returns."""

    #: records appended since open (one per acknowledged mutation verb)
    wal_records: int = 0
    #: framed bytes appended (header + payload)
    wal_bytes: int = 0
    #: times logged state was folded into the store and its log retired
    checkpoints: int = 0
    #: whole log records applied by the last recovery
    replayed_records: int = 0
    #: keys those records (and a loaded checkpoint) carried
    replayed_keys: int = 0
    replay_seconds: float = 0.0
    #: bytes of a half-written last record that recovery dropped
    torn_tail_bytes: int = 0


def open_backend(kind: str, **config) -> "Backend":
    """Instantiate a backend by kind name (``map``, ``lsm``).

    Durability is a property of the kind (:attr:`Backend.durable`), and
    every database has at most one log:

    - a durable kind (``lsm``) logs and recovers by itself.  ``wal_path``
      is accepted -- deployments stamp it on every database -- and names
      nothing: no file is created there;
    - any other kind given a ``wal_path`` is wrapped in a
      :class:`~repro.yokan.backends.wal.DurableBackend`, whose log at
      that path (checkpointed at ``wal_checkpoint_bytes``) is replayed
      here on reopen; without one it is volatile.

    ``wal_sync`` makes whichever log the database has fsync every record
    before the write is acknowledged.
    """
    wal_path = config.pop("wal_path", None)
    wal_checkpoint_bytes = config.pop("wal_checkpoint_bytes", None)
    wal_sync = bool(config.pop("wal_sync", False))
    try:
        cls = BACKEND_KINDS[kind]
    except KeyError:
        raise ConfigError(
            f"unknown backend kind {kind!r}; known: {sorted(BACKEND_KINDS)}"
        ) from None
    if cls.durable:
        return cls(wal_sync=wal_sync, **config)
    backend = cls(**config)
    if wal_path:
        from repro.yokan.backends.wal import DurableBackend

        kwargs = {"wal_sync": wal_sync}
        if wal_checkpoint_bytes is not None:
            kwargs["checkpoint_bytes"] = int(wal_checkpoint_bytes)
        backend = DurableBackend(backend, wal_path, **kwargs)
    return backend


class Backend(abc.ABC):
    """An ordered byte-key / byte-value store.

    Iteration order is bytewise-lexicographic on keys, which combined
    with big-endian number encoding gives HEPnOS its sorted runs,
    subruns, and events (paper section II-C3).
    """

    #: Whether every acknowledged write survives :meth:`crash` + reopen.
    #: ``open_backend`` gives a write-ahead log only to kinds that say no.
    durable = False

    def __init__(self) -> None:
        self._closed = False
        self._crashed = False
        #: what this backend's log did; a backend that keeps a log
        #: counts into it, a volatile one leaves it at zero
        self.stats = DurabilityStats()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        self._closed = True

    def crash(self) -> None:
        """Simulate losing the process: drop state without flushing.

        Unlike :meth:`close`, buffered writes are *not* made durable —
        a durable backend must recover from its log, a volatile one
        genuinely loses everything.
        """
        self._closed = True
        self._crashed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._crashed:
            # A crashed backend means the process died: any in-flight
            # handler racing the crash must look like a dead server to
            # the client (retryable), not a clean database shutdown.
            raise AddressError("backend crashed")
        if self._closed:
            raise DatabaseClosed("backend is closed")

    def flush(self) -> None:
        """Force durability of buffered writes (no-op by default)."""
        self._check_open()

    def checkpoint(self) -> None:
        """Fold logged state into the store proper and retire the log,
        so the next recovery replays nothing written before this call
        (a volatile backend has no log: no-op)."""
        self._check_open()

    def durability_stats(self) -> DurabilityStats:
        return self.stats

    # -- required primitives -------------------------------------------------

    @abc.abstractmethod
    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite ``key``."""

    @abc.abstractmethod
    def get(self, key: bytes) -> bytes:
        """Return the value for ``key`` or raise :class:`KeyNotFound`."""

    @abc.abstractmethod
    def exists(self, key: bytes) -> bool:
        """Whether ``key`` is present."""

    @abc.abstractmethod
    def erase(self, key: bytes) -> None:
        """Remove ``key``; raise :class:`KeyNotFound` if absent."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of live keys."""

    @abc.abstractmethod
    def scan(
        self,
        start: bytes = b"",
        inclusive: bool = True,
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Ordered iteration of (key, value) from ``start``."""

    @abc.abstractmethod
    def put_multi(self, pairs: Iterable[Tuple[bytes, bytes]]) -> int:
        """Insert many pairs; returns the count (batch RPC fast path)."""

    # -- derived operations --------------------------------------------------

    def get_or_none(self, key: bytes) -> Optional[bytes]:
        try:
            return self.get(key)
        except KeyNotFound:
            return None

    def get_each(self, keys: Iterable[bytes]) -> Iterator[Optional[bytes]]:
        """The value of each key, in order, ``None`` for a missing key,
        each looked up only when it is taken: a reader that stops early
        looks up nothing more.  A backend that can answer a page of
        keys from one snapshot overrides this."""
        return map(self.get_or_none, keys)

    def get_multi(self, keys: Sequence[bytes]) -> list[Optional[bytes]]:
        """Fetch many keys; missing keys yield ``None`` (the list form
        of :meth:`get_each`)."""
        return list(self.get_each(keys))

    def erase_multi(self, keys: Sequence[bytes]) -> int:
        """Remove many keys; missing keys are skipped. Returns the count
        actually removed (batch RPC fast path for migration)."""
        removed = 0
        for key in keys:
            try:
                self.erase(key)
                removed += 1
            except KeyNotFound:
                continue
        return removed

    def scan_prefix(self, prefix: bytes) -> Iterator[Tuple[bytes, bytes]]:
        for key, value in self.scan(prefix):
            if not key.startswith(prefix):
                return
            yield key, value

    def scan_prefixes(self, prefixes: Iterable[bytes]
                      ) -> Iterator[Iterable[Tuple[bytes, bytes]]]:
        """One group of ``(key, value)`` pairs per prefix, in request
        order, each produced only when the one before it was taken: a
        reader that stops early scans nothing more.  A backend that can
        answer a page of prefixes in one pass overrides this;
        :meth:`scan_prefix` is its one-prefix case."""
        return (self.scan_prefix(prefix) for prefix in prefixes)

    def list_keys(
        self,
        prefix: bytes = b"",
        start_after: bytes = b"",
        limit: int = 0,
    ) -> list[bytes]:
        """Keys with ``prefix``, strictly after ``start_after``.

        ``limit`` of 0 means unlimited.  This is the primitive the
        HEPnOS container iterators are built on.
        """
        out: list[bytes] = []
        if start_after and start_after >= prefix:
            iterator = self.scan(start_after, inclusive=False)
        else:
            iterator = self.scan(prefix, inclusive=True)
        for key, _ in iterator:
            if not key.startswith(prefix):
                # Scan starts at >= prefix, so a non-matching key is past
                # the end of the prefix range.
                break
            out.append(key)
            if limit and len(out) >= limit:
                break
        return out
