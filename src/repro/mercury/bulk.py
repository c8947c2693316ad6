"""Bulk handles: registered memory regions for RDMA-style transfers."""

from __future__ import annotations

import enum
import itertools
import weakref
from typing import Optional

from repro.errors import RPCError

# Live regions by id: lets a serialized descriptor crossing the (in-process)
# wire resolve back to the actual memory, the way a Mercury bulk handle
# resolves to registered memory on the origin node.
_REGIONS: "weakref.WeakValueDictionary[int, Bulk]" = weakref.WeakValueDictionary()


def lookup_region(bulk_id: int) -> Optional["Bulk"]:
    """The live region exposed under ``bulk_id``, or ``None``."""
    return _REGIONS.get(bulk_id)


class BulkOp(enum.Enum):
    """Direction of a bulk transfer, from the *origin*'s perspective."""

    PULL = "pull"  # origin reads from the remote region (HG_BULK_PULL)
    PUSH = "push"  # origin writes into the remote region (HG_BULK_PUSH)


class Bulk:
    """A registered memory region that a remote peer may read or write.

    Mercury semantics: the *owner* exposes a buffer with an access mode;
    the remote side, holding the (serialized) bulk descriptor, initiates
    a transfer.  Here the buffer is a ``bytearray`` so both read and
    write access are zero-copy within the process.
    """

    READ_ONLY = "r"
    WRITE_ONLY = "w"
    READ_WRITE = "rw"

    _ids = itertools.count()

    def __init__(self, owner_address, buffer: bytearray, mode: str = READ_WRITE):
        if mode not in (self.READ_ONLY, self.WRITE_ONLY, self.READ_WRITE):
            raise ValueError(f"bad bulk access mode {mode!r}")
        if not isinstance(buffer, bytearray):
            raise TypeError("bulk buffers must be bytearray (writable, stable)")
        self.bulk_id = next(Bulk._ids)
        self.owner_address = owner_address
        self._buffer = buffer
        self.mode = mode
        _REGIONS[self.bulk_id] = self

    def serialize(self, ar) -> None:
        """Archive protocol: descriptors travel by id, not by content.

        Deserializing aliases the origin's registered buffer, so bulk
        transfers against the decoded descriptor move real bytes --
        exactly what RDMA against a remote registration does.
        """
        if ar.is_output:
            ar.io(self.bulk_id)
        else:
            bulk_id = ar.io(None)
            source = _REGIONS.get(bulk_id)
            if source is None:
                raise RPCError(f"bulk region {bulk_id} is no longer registered")
            self.bulk_id = source.bulk_id
            self.owner_address = source.owner_address
            self._buffer = source._buffer
            self.mode = source.mode

    def __len__(self) -> int:
        return len(self._buffer)

    @property
    def readable(self) -> bool:
        return "r" in self.mode

    @property
    def writable(self) -> bool:
        return "w" in self.mode

    def read(self, offset: int = 0, size: Optional[int] = None) -> bytes:
        """Owner-or-fabric access: copy bytes out of the region."""
        if size is None:
            size = len(self._buffer) - offset
        if offset < 0 or offset + size > len(self._buffer):
            raise ValueError(
                f"bulk read [{offset}, {offset + size}) out of bounds "
                f"(region is {len(self._buffer)} bytes)"
            )
        return bytes(self._buffer[offset : offset + size])

    def view(self, offset: int = 0, size: Optional[int] = None) -> memoryview:
        """Zero-copy window into the region (same bounds as :meth:`read`).

        The fabric's transfer path reads through views so an RDMA-style
        move is one copy (into the destination region), not two.  The
        view pins the backing buffer while it is alive.
        """
        if size is None:
            size = len(self._buffer) - offset
        if offset < 0 or offset + size > len(self._buffer):
            raise ValueError(
                f"bulk view [{offset}, {offset + size}) out of bounds "
                f"(region is {len(self._buffer)} bytes)"
            )
        return memoryview(self._buffer)[offset : offset + size]

    def write(self, data: bytes, offset: int = 0) -> None:
        """Owner-or-fabric access: copy bytes into the region."""
        if offset < 0 or offset + len(data) > len(self._buffer):
            raise ValueError(
                f"bulk write [{offset}, {offset + len(data)}) out of bounds "
                f"(region is {len(self._buffer)} bytes)"
            )
        self._buffer[offset : offset + len(data)] = data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Bulk(id={self.bulk_id}, owner={self.owner_address}, "
            f"size={len(self._buffer)}, mode={self.mode!r})"
        )
