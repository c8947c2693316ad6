"""Replica wiring and anti-entropy re-sync (durability layer).

:func:`enable_replication` turns a deployed service into a
primary/backup replicated one: every database's backup is chosen by
:meth:`~repro.hepnos.placement.ShardMap.backup_for` (the next target of
the kind at a *different* address), and each server is told to forward
acknowledged writes over its :class:`~repro.yokan.provider.ReplicaLink`.

:func:`resync_missing` is the anti-entropy primitive used when a node
rejoins after losing state: copy every key the destination is missing
from the source, applied through the ``replicate`` verb so the catch-up
itself is never re-forwarded.  Values are immutable and reads are
routed by placement, so copying a superset is safe -- a key never
changes under the copy, and extra keys in a replica are only ever read
through placement-directed prefixes they legitimately match.
"""

from __future__ import annotations

from typing import Optional

from repro.hepnos.connection import (
    KINDS,
    ConnectionInfo,
    DbTarget,
    connection_from_servers,
)
from repro.hepnos.placement import ShardMap


def kind_of(target: DbTarget) -> str:
    """The container kind a database name encodes (``events-3`` -> ``events``)."""
    return target.name.rsplit("-", 1)[0]


def replica_links(shard_map: ShardMap) -> dict[DbTarget, DbTarget]:
    """Every primary -> backup edge the shard map implies."""
    links: dict[DbTarget, DbTarget] = {}
    for kind in KINDS:
        for target in shard_map.connection[kind]:
            backup = shard_map.backup_for(kind, target)
            if backup is not None:
                links[target] = backup
    return links


def enable_replication(servers, replication: int = 2,
                       client: Optional[dict] = None) -> ConnectionInfo:
    """Wire primary/backup write forwarding across deployed servers.

    Returns the :class:`ConnectionInfo` (with the replication factor
    recorded) that clients should connect with.  Each server remembers
    its link table and re-applies it after a restart, so a recovered
    primary resumes forwarding without re-wiring.
    """
    connection = connection_from_servers(servers, client=client,
                                         replication=replication)
    shard_map = ShardMap(connection)
    by_address = {str(server.address): server for server in servers}
    per_server: dict[str, dict[str, tuple[str, int, str]]] = {}
    for primary, backup in replica_links(shard_map).items():
        per_server.setdefault(primary.address, {})[primary.name] = (
            backup.address, backup.provider_id, backup.name)
    for address, links in per_server.items():
        by_address[address].set_replication(links)
    return connection


def resync_missing(src_handle, dst_handle, page: int = 512) -> int:
    """Copy every key ``dst_handle`` is missing from ``src_handle``.

    Returns the number of keys copied.  Uses the ``replicate`` verb so
    the catch-up writes are not themselves forwarded (the destination
    may be a primary whose replica link points back at the source).
    """
    existing = set(dst_handle.iter_keys(batch=page))
    copied = 0
    batch: list[bytes] = []

    def ship(keys: list[bytes]) -> int:
        values = src_handle.get_multi(keys)
        pairs = [(key, value)
                 for key, value in zip(keys, values) if value is not None]
        if not pairs:
            return 0
        stored, _removed = dst_handle.replicate(pairs)
        return stored

    for key in src_handle.iter_keys(batch=page):
        if key in existing:
            continue
        batch.append(key)
        if len(batch) >= page:
            copied += ship(batch)
            batch = []
    if batch:
        copied += ship(batch)
    return copied
