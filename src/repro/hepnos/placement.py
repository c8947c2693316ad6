"""Placement: which database holds a key (paper section II-C3).

HEPnOS places a container key by consistent-hashing its **parent's**
key, so that (1) all direct children of a container live in a single
database and (2) iterating them uses one database's ordered iterator
instead of interrogating every server and merging.  Products are placed
by the hash of their parent container key, so all products of one event
can be read in a batch from one database.

:class:`FullKeyPlacement` implements the rejected alternative --
consistent hashing of the *full* key -- and exists for the A-place
ablation benchmark: listing a container's children under it requires
querying every database.
"""

from __future__ import annotations

from repro.hepnos.connection import ConnectionInfo, DbTarget
from repro.utils import ConsistentHashRing


class ParentHashPlacement:
    """The paper's strategy: place children by the parent's key."""

    name = "parent-hash"

    def __init__(self, connection: ConnectionInfo, vnodes: int = 64):
        self._rings: dict[str, ConsistentHashRing] = {}
        self._targets = connection.targets
        for kind, targets in connection.targets.items():
            # Ring points hash the target identities (address, provider,
            # name), NOT list positions: adding or removing a database
            # then relocates only its consistent-hashing share of keys
            # (the property storage rescaling relies on).
            self._rings[kind] = ConsistentHashRing(targets, vnodes=vnodes)

    def database_for(self, kind: str, parent_key: bytes) -> DbTarget:
        """The single database holding all children of ``parent_key``."""
        return self._rings[kind].locate(parent_key)

    def database_for_many(self, kind: str, parent_keys) -> list[DbTarget]:
        """:meth:`database_for` of each key, hashed as one batch."""
        return self._rings[kind].locate_many(parent_keys)

    def databases_for_listing(self, kind: str, parent_key: bytes
                              ) -> list[DbTarget]:
        """Databases to interrogate when listing children: exactly one."""
        return [self.database_for(kind, parent_key)]

    def product_database_for(self, container_key: bytes) -> DbTarget:
        """Products are placed by their container's key."""
        return self.database_for("products", container_key)

    def product_database_for_many(self, container_keys) -> list[DbTarget]:
        return self.database_for_many("products", container_keys)


class ShardMap:
    """A versioned placement map: an epoch counter over a strategy.

    The datastore consults one of these per key.  Outside a migration
    it simply delegates to its strategy.  During a live rescale the map
    is *migrating*: it holds both the new strategy (``strategy``) and
    the previous epoch's (``previous``).  Writes resolve to the new
    layout immediately (write-forwarding); reads that miss fall back to
    the previous shard (dual-read), which is safe because the migrator
    copies before it erases and every stored value is immutable.

    Epoch transitions:

    - :meth:`advance` enters a migration epoch (``epoch + 1``,
      ``previous`` populated) for a new connection;
    - :meth:`settle` commits it (``epoch + 1``, ``previous`` dropped).

    A client that notices the epoch changed mid-operation raises
    :class:`~repro.errors.ShardMapStale` and retries under the new map.
    """

    def __init__(self, connection: ConnectionInfo, strategy=None,
                 epoch: int = 0, previous=None,
                 previous_connection: ConnectionInfo | None = None):
        self.connection = connection
        self.strategy = strategy if strategy is not None \
            else ParentHashPlacement(connection)
        self.epoch = epoch
        self.previous = previous
        self.previous_connection = previous_connection

    @property
    def name(self) -> str:
        return self.strategy.name

    @property
    def migrating(self) -> bool:
        return self.previous is not None

    # -- epoch transitions --------------------------------------------------

    def advance(self, connection: ConnectionInfo) -> "ShardMap":
        """The migration epoch targeting ``connection``."""
        return ShardMap(connection, epoch=self.epoch + 1,
                        previous=self.strategy,
                        previous_connection=self.connection)

    def settle(self) -> "ShardMap":
        """The committed epoch after a migration finishes."""
        return ShardMap(self.connection, strategy=self.strategy,
                        epoch=self.epoch + 1)

    # -- lookups (same interface as ParentHashPlacement) --------------------

    def database_for(self, kind: str, parent_key: bytes) -> DbTarget:
        return self.strategy.database_for(kind, parent_key)

    def database_for_many(self, kind: str, parent_keys) -> list[DbTarget]:
        return self.strategy.database_for_many(kind, parent_keys)

    def product_database_for(self, container_key: bytes) -> DbTarget:
        return self.strategy.product_database_for(container_key)

    def product_database_for_many(self, container_keys) -> list[DbTarget]:
        return self.strategy.product_database_for_many(container_keys)

    def databases_for_listing(self, kind: str, parent_key: bytes
                              ) -> list[DbTarget]:
        """Databases to interrogate when listing: both shards while a
        migration may have left the parent's children split across the
        old and new layouts."""
        targets = list(self.strategy.databases_for_listing(kind, parent_key))
        prev = self.previous_database_for(kind, parent_key)
        if prev is not None:
            targets.append(prev)
        return targets

    # -- replica groups -----------------------------------------------------

    @property
    def replication(self) -> int:
        """Configured copies per shard (1 = no replication)."""
        return getattr(self.connection, "replication", 1)

    def backup_for(self, kind: str, target: DbTarget) -> DbTarget | None:
        """The backup database for ``target``, or ``None``.

        The backup is the next target of the same kind in connection
        order, preferring one at a *different address* so losing a
        server never takes a shard's whole replica group with it.
        Returns ``None`` when replication is off, when the kind has a
        single database, or when ``target`` is unknown.
        """
        if self.replication < 2:
            return None
        targets = self.connection[kind]
        if target not in targets:
            if (self.previous_connection is not None
                    and target in self.previous_connection[kind]):
                targets = self.previous_connection[kind]
            else:
                return None
        index = targets.index(target)
        count = len(targets)
        fallback = None
        for step in range(1, count):
            candidate = targets[(index + step) % count]
            if candidate.address != target.address:
                return candidate
            if fallback is None and candidate != target:
                fallback = candidate
        return fallback

    # -- dual-read helpers --------------------------------------------------

    def previous_database_for(self, kind: str, parent_key: bytes
                              ) -> DbTarget | None:
        """The pre-migration shard, when it differs from the current one."""
        if self.previous is None:
            return None
        old = self.previous.database_for(kind, parent_key)
        if old == self.strategy.database_for(kind, parent_key):
            return None
        return old

    def previous_product_database_for(self, container_key: bytes
                                      ) -> DbTarget | None:
        return self.previous_database_for("products", container_key)

    def previous_product_database_for_many(self, container_keys) -> list:
        """:meth:`previous_product_database_for` of each key, batched."""
        if self.previous is None:
            return [None] * len(container_keys)
        now = self.strategy.product_database_for_many(container_keys)
        old = self.previous.product_database_for_many(container_keys)
        return [None if o == n else o for o, n in zip(old, now)]

    # -- observability ------------------------------------------------------

    def shard_id(self, kind: str, target: DbTarget) -> int:
        """A small stable integer identifying ``target`` for trace tags.

        Indices follow the current connection's sorted target list; a
        target only present in the pre-migration connection reports the
        complement of its old index (so old and new shards are
        distinguishable in spans for the duration of the migration).
        """
        targets = self.connection[kind]
        if target in targets:
            return targets.index(target)
        if self.previous_connection is not None:
            old_targets = self.previous_connection[kind]
            if target in old_targets:
                return -1 - old_targets.index(target)
        return -1

    def describe(self) -> dict:
        out = {
            "epoch": self.epoch,
            "migrating": self.migrating,
            "strategy": self.name,
            "shards": {kind: len(targets)
                       for kind, targets in self.connection.targets.items()},
        }
        if self.previous_connection is not None:
            out["previous_shards"] = {
                kind: len(targets)
                for kind, targets in self.previous_connection.targets.items()
            }
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "migrating" if self.migrating else "settled"
        return f"ShardMap(epoch={self.epoch}, {state})"


class FullKeyPlacement:
    """The rejected alternative: place every key by its own hash.

    Point lookups still hit one database, but listing a container's
    children requires querying all databases and merging (the cost the
    paper's design avoids).
    """

    name = "full-key"

    def __init__(self, connection: ConnectionInfo, vnodes: int = 64):
        self._rings: dict[str, ConsistentHashRing] = {}
        self._targets = connection.targets
        for kind, targets in connection.targets.items():
            self._rings[kind] = ConsistentHashRing(targets, vnodes=vnodes)

    def database_for_key(self, kind: str, key: bytes) -> DbTarget:
        return self._rings[kind].locate(key)

    def database_for_key_many(self, kind: str, keys) -> list[DbTarget]:
        return self._rings[kind].locate_many(keys)

    def databases_for_listing(self, kind: str, parent_key: bytes
                              ) -> list[DbTarget]:
        return list(self._targets[kind])
