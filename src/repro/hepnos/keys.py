"""Container and product key construction (paper section II-C).

Key shapes (all big-endian numbers, so byte order == numeric order):

- dataset entry: the full path string (``fermilab/nova``), valued with
  the dataset's 16-byte UUID;
- run:    ``<dataset uuid><run#>``          (16 + 8 bytes)
- subrun: ``<dataset uuid><run#><subrun#>`` (16 + 8 + 8 bytes)
- event:  ``<dataset uuid><run#><subrun#><event#>`` (16 + 8 + 8 + 8)
- product: ``<container key><label>#<type>``

Placement hashes the *parent* key, so all direct children of a
container land in one database and iterate in order there.
"""

from __future__ import annotations

import hashlib

from repro.errors import HEPnOSError
from repro.utils import decode_u64_be, encode_u64_be

UUID_LEN = 16
RUN_KEY_LEN = UUID_LEN + 8
SUBRUN_KEY_LEN = UUID_LEN + 16
EVENT_KEY_LEN = UUID_LEN + 24

_DATASET_NAMESPACE = b"hepnos-dataset-namespace-v1"


def new_dataset_uuid(path: str) -> bytes:
    """The UUID of the dataset at ``path`` (deterministic).

    Derived by hashing the normalized path (UUIDv5 semantics), so
    concurrent clients creating the same dataset mint the *same*
    identity -- creation stays an idempotent key insert with no
    read-modify-write race.
    """
    normalized = normalize_path(path)
    digest = hashlib.sha1(
        _DATASET_NAMESPACE + normalized.encode("utf-8")
    ).digest()
    return digest[:UUID_LEN]


def normalize_path(path: str) -> str:
    """Canonical dataset path: no leading/trailing/duplicate slashes."""
    parts = [p for p in path.split("/") if p]
    if not parts:
        raise HEPnOSError("dataset path is empty")
    for part in parts:
        if "#" in part:
            raise HEPnOSError(f"dataset name {part!r} may not contain '#'")
    return "/".join(parts)


def parent_path(path: str) -> str:
    """The parent of a normalized path ('' for root datasets)."""
    head, _, _ = path.rpartition("/")
    return head


def dataset_key(path: str) -> bytes:
    return normalize_path(path).encode("utf-8")


def run_key(dataset_uuid: bytes, run_number: int) -> bytes:
    _check_uuid(dataset_uuid)
    return dataset_uuid + encode_u64_be(run_number)


def subrun_key(run_key_bytes: bytes, subrun_number: int) -> bytes:
    if len(run_key_bytes) != RUN_KEY_LEN:
        raise HEPnOSError("bad run key length")
    return run_key_bytes + encode_u64_be(subrun_number)


def event_key(subrun_key_bytes: bytes, event_number: int) -> bytes:
    if len(subrun_key_bytes) != SUBRUN_KEY_LEN:
        raise HEPnOSError("bad subrun key length")
    return subrun_key_bytes + encode_u64_be(event_number)


def product_key(container_key: bytes, label: str, type_name: str) -> bytes:
    if "#" in label:
        raise HEPnOSError(f"product label {label!r} may not contain '#'")
    if not type_name:
        raise HEPnOSError("product type name is empty")
    return container_key + label.encode("utf-8") + b"#" + type_name.encode("utf-8")


def child_number(key: bytes) -> int:
    """The trailing (own) number of a run/subrun/event key."""
    if len(key) not in (RUN_KEY_LEN, SUBRUN_KEY_LEN, EVENT_KEY_LEN):
        raise HEPnOSError(f"not a numbered container key ({len(key)} bytes)")
    return decode_u64_be(key[-8:])


def split_children(parents, start_after: bytes, children: list) -> list:
    """Cut one multi-parent listing answer into a run per parent.

    ``children`` answers "the children of ``parents[0]`` after
    ``start_after``, then of each following parent, in order"; the
    result holds one list per parent up to the one the last child
    belongs to.  A run ends at the first child outside its parent or
    not above the run's last child, so a parent named twice gets two
    runs.
    """
    runs: list = []
    if not children:
        return runs
    start, parent, last = 0, parents[0], start_after
    width = len(parent)
    for i, key in enumerate(children):
        while key[:width] != parent or key <= last:
            runs.append(children[start:i])
            if len(runs) == len(parents):
                raise HEPnOSError(
                    f"listing answered {key!r} under none of its parents")
            start, parent, last = i, parents[len(runs)], b""
            width = len(parent)
        last = key
    runs.append(children[start:])
    return runs


def _check_uuid(dataset_uuid: bytes) -> None:
    if len(dataset_uuid) != UUID_LEN:
        raise HEPnOSError(
            f"dataset uuid must be {UUID_LEN} bytes, got {len(dataset_uuid)}"
        )
