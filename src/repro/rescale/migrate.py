"""Live rescaling: move parent groups between shards under traffic.

Rescaling walks the container hierarchy (parents determine placement),
compares each parent group's database under the old and new layouts,
and moves only the groups whose target changed.  Because placement uses
consistent hashing, adding one database relocates roughly ``1/n`` of
the groups -- Pufferscale's minimal-migration property.

:class:`LiveRescaler` / :func:`migrate_live` swap the client's shard
map into a *migration epoch* first, then move keys in small steps while
ingest and queries keep running.  Reads fall back to the old shard
until :meth:`LiveRescaler.commit` (dual-read); writes resolve to the
new layout from the start (write-forwarding); every step is
copy-then-erase and idempotent, so a provider crash mid-migration is
survived by the ordinary retry policy.  An idle store is just the case
with no traffic between the steps.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.errors import ConfigError
from repro.hepnos import keys as hkeys
from repro.hepnos.connection import KINDS, ConnectionInfo, DbTarget
from repro.monitor import tracing as _tracing


@dataclass
class MigrationStats:
    keys_moved: int = 0
    keys_stayed: int = 0
    bytes_moved: int = 0
    #: pairs actually moved, per container kind ("events", "products",
    #: ...).  Counts what landed on the destination, not what the plan
    #: intended -- the two differ when keys vanish mid-migration (live
    #: traffic) -- so ``sum(moves_by_kind.values()) == keys_moved``
    #: holds by construction.
    moves_by_kind: dict[str, int] = field(default_factory=dict)

    @property
    def moved_fraction(self) -> float:
        total = self.keys_moved + self.keys_stayed
        return self.keys_moved / total if total else 0.0

    def describe(self) -> str:
        by_kind = ", ".join(f"{kind}={count}" for kind, count
                            in sorted(self.moves_by_kind.items()))
        return (f"moved {self.keys_moved} keys "
                f"({self.bytes_moved} bytes, "
                f"{self.moved_fraction:.1%} of {self.keys_moved + self.keys_stayed}) "
                f"[{by_kind or 'nothing'}]")


# -- connection surgery -------------------------------------------------------


def add_server(connection: ConnectionInfo, server) -> ConnectionInfo:
    """The connection after ``server`` (a BedrockServer) joins."""
    targets = {kind: list(connection[kind]) for kind in KINDS}
    for db_name, provider_id in server.database_directory.items():
        kind = db_name.rsplit("-", 1)[0]
        if kind not in KINDS:
            raise ConfigError(
                f"database {db_name!r} does not map to a container kind"
            )
        target = DbTarget(str(server.address), provider_id, db_name)
        if target in targets[kind]:
            raise ConfigError(f"target {target} already in the connection")
        targets[kind].append(target)
    return ConnectionInfo(targets, client=connection.client,
                          replication=connection.replication)


# -- planning ---------------------------------------------------------------


def _parent_groups(datastore) -> Iterable[tuple[str, bytes, list[bytes]]]:
    """Yield (kind, parent_key, child_keys) for every populated parent.

    Walks the hierarchy: dataset children per parent path, runs per
    dataset, subruns per run, events per subrun, and products per
    container (runs, subruns, events all hold products).
    """
    # Dataset entries, grouped by parent path.
    def walk_datasets(parent_path: str):
        children = list(datastore.child_datasets(parent_path))
        if children:
            yield (
                "datasets",
                parent_path.encode("utf-8"),
                [hkeys.dataset_key(c.path) for c in children],
            )
        for child in children:
            yield from walk_datasets(child.path)

    yield from walk_datasets("")

    for dataset in _all_datasets(datastore):
        run_keys = list(datastore.list_child_keys("runs", dataset.uuid))
        if run_keys:
            yield ("runs", dataset.uuid, run_keys)
        for run_key in run_keys:
            subrun_keys = list(datastore.list_child_keys("subruns", run_key))
            yield from _product_group(datastore, run_key, subrun_keys)
            if subrun_keys:
                yield ("subruns", run_key, subrun_keys)
            for subrun_key in subrun_keys:
                event_keys = list(
                    datastore.list_child_keys("events", subrun_key)
                )
                yield from _product_group(datastore, subrun_key, event_keys)
                if event_keys:
                    yield ("events", subrun_key, event_keys)
                for event_key in event_keys:
                    yield from _product_group(datastore, event_key, ())


def _all_datasets(datastore):
    stack = list(datastore.datasets())
    while stack:
        ds = stack.pop()
        yield ds
        stack.extend(ds.datasets())


def _product_group(datastore, container_key: bytes, child_keys):
    """Products stored *directly* on ``container_key``.

    A prefix scan over a run key also matches products of its subruns
    and events (their keys extend the run key), so keys continuing into
    a known child container are filtered out.  The filter compares the
    8 bytes after the container key against the child numbers; a text
    label colliding with an existing child's big-endian number is
    theoretically possible but needs a label starting with that exact
    8-byte sequence.
    """
    placement = datastore.placement
    targets = {placement.product_database_for(container_key)}
    previous = getattr(placement, "previous_product_database_for", None)
    if previous is not None:
        # Mid-migration the products may be split across the old and
        # new shards; scan both and merge.
        old = previous(container_key)
        if old is not None:
            targets.add(old)
    child_set = set(child_keys)
    width = len(container_key) + 8
    seen: set[bytes] = set()
    for target in targets:
        handle = datastore.handle_for_target(target)
        seen.update(
            key for key in handle.list_keys(prefix=container_key)
            if not (len(key) > width and key[:width] in child_set)
        )
    if seen:
        yield ("products", container_key, sorted(seen))


# -- live rescaling -----------------------------------------------------------


class LiveRescaler:
    """Add or remove storage while clients keep reading and writing.

    Protocol (see ARCHITECTURE.md, "Sharding & live rescaling"):

    1. :meth:`begin` swaps the datastore's shard map into a migration
       epoch targeting ``new_connection`` -- from this instant writes
       resolve to the new layout and reads dual-read -- and *then*
       plans the key movements by scanning the old placement (so
       nothing written before the swap can be missed).
    2. :meth:`step` moves one batch: ``get_multi`` from the old shard,
       ``put_multi`` to the new, ``erase_multi`` the copies.
       Copy-then-erase plus immutable values make every step idempotent
       and safe to retry (including across a provider crash/restart).
    3. :meth:`commit` bumps the epoch once more and drops the
       dual-read fallback.

    :meth:`run` drives all three, optionally yielding to a callback
    between steps so callers can interleave live traffic.
    """

    def __init__(self, datastore, new_connection: ConnectionInfo,
                 batch_size: int = 1024):
        self.datastore = datastore
        self.new_connection = new_connection
        self.batch_size = batch_size
        self.stats = MigrationStats()
        self.epoch: Optional[int] = None
        self._chunks: Optional[deque] = None

    @property
    def started(self) -> bool:
        return self._chunks is not None

    @property
    def remaining_keys(self) -> int:
        return sum(len(chunk) for _, _, _, chunk in self._chunks or ())

    def begin(self) -> int:
        """Enter the migration epoch and plan the moves; returns it."""
        if self.started:
            raise ConfigError("live rescale already begun")
        ds = self.datastore
        with _tracing.span("rescale.begin") as sp:
            self.epoch = ds.begin_migration(self.new_connection)
            old = ds.placement.previous
            new = ds.placement.strategy
            chunks: deque = deque()
            stayed = 0
            for kind, parent_key, child_keys in _parent_groups(ds):
                source = old.database_for(kind, parent_key)
                destination = new.database_for(kind, parent_key)
                if source == destination:
                    stayed += len(child_keys)
                    continue
                for start in range(0, len(child_keys), self.batch_size):
                    chunks.append((kind, source, destination,
                                   tuple(child_keys[
                                       start:start + self.batch_size])))
            self.stats.keys_stayed = stayed
            self._chunks = chunks
            sp.set_tag("epoch", self.epoch)
            sp.set_tag("chunks", len(chunks))
            sp.set_tag("keys_stayed", stayed)
        return self.epoch

    def step(self) -> bool:
        """Move one batch of keys; False once nothing is left."""
        if not self.started:
            raise ConfigError("live rescale not begun")
        if not self._chunks:
            return False
        kind, source, destination, chunk = self._chunks[0]
        ds = self.datastore
        with _tracing.span("rescale.step", kind=kind, epoch=self.epoch,
                           keys=len(chunk)) as sp:
            smap = ds.placement
            sp.set_tag("source_shard", smap.shard_id(kind, source))
            sp.set_tag("destination_shard",
                       smap.shard_id(kind, destination))
            src = ds.handle_for_target(source)
            dst = ds.handle_for_target(destination)
            values = src.get_multi(list(chunk))
            pairs = [(k, v) for k, v in zip(chunk, values)
                     if v is not None]
            dst.put_multi(pairs)
            src.erase_multi([k for k, _ in pairs])
            # Dequeue only after the move landed: a retried step just
            # re-copies (idempotent) instead of losing the chunk.
            self._chunks.popleft()
            self.stats.keys_moved += len(pairs)
            self.stats.bytes_moved += sum(len(k) + len(v)
                                          for k, v in pairs)
            self.stats.moves_by_kind[kind] = (
                self.stats.moves_by_kind.get(kind, 0) + len(pairs)
            )
            sp.set_tag("moved", len(pairs))
        return True

    def commit(self) -> MigrationStats:
        """Drop the dual-read fallback; the migration is complete."""
        if not self.started:
            raise ConfigError("live rescale not begun")
        if self._chunks:
            raise ConfigError(
                f"{self.remaining_keys} keys still queued; "
                f"drain step() before commit()"
            )
        with _tracing.span("rescale.commit", epoch=self.epoch) as sp:
            committed = self.datastore.commit_migration()
            sp.set_tag("committed_epoch", committed)
            sp.set_tag("keys_moved", self.stats.keys_moved)
            for kind, count in sorted(self.stats.moves_by_kind.items()):
                sp.set_tag(f"moved_{kind}", count)
        return self.stats

    def run(self, step_callback: Optional[Callable[[], None]] = None
            ) -> MigrationStats:
        """begin -> step* -> commit, yielding to ``step_callback``
        between steps so live traffic can interleave."""
        self.begin()
        while self.step():
            if step_callback is not None:
                step_callback()
        return self.commit()


def migrate_live(datastore, new_connection: ConnectionInfo,
                 batch_size: int = 1024,
                 step_callback: Optional[Callable[[], None]] = None
                 ) -> MigrationStats:
    """Convenience wrapper: run a full live rescale to completion."""
    return LiveRescaler(datastore, new_connection,
                        batch_size=batch_size).run(step_callback)
