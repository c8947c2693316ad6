"""Yokan: a remotely-accessible single-node key-value storage component.

Yokan is the Mochi component HEPnOS is primarily built on (paper
section II-B): it exposes key-value databases over RPC (small items) and
RDMA-style bulk transfers (large items and batches), with ordered
iteration and a choice of persistent or in-memory backends.

Backends provided here:

- ``"map"``      -- in-memory sorted map (the paper's ``std::map``);
- ``"lsm"``      -- a log-structured merge tree with WAL, SSTables,
  bloom filters and compaction (the paper's RocksDB).
"""

from repro.yokan.backend import Backend, open_backend, BACKEND_KINDS
from repro.yokan.backends.memory import MemoryBackend
from repro.yokan.backends.lsm import LSMBackend
from repro.yokan.provider import YokanProvider
from repro.yokan.client import YokanClient, DatabaseHandle
from repro.yokan.nonblocking import OperationFuture

__all__ = [
    "Backend",
    "open_backend",
    "BACKEND_KINDS",
    "MemoryBackend",
    "LSMBackend",
    "YokanProvider",
    "YokanClient",
    "DatabaseHandle",
    "OperationFuture",
]
