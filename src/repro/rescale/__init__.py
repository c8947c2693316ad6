"""Storage rescaling (the Pufferscale stand-in).

The paper (section V) cites rescaling [27] as a technique that "could
further improve HEPnOS's potential by allowing users to add and remove
storage resources while HEP applications are using it."  This package
implements that capability for this reproduction:

- :func:`add_server` -- connection surgery: the target connection
  after a BedrockServer joins (a server leaves by migrating back to
  the connection that did not have it);
- :class:`LiveRescaler` / :func:`migrate_live` -- *live* rescaling:
  the shard map enters a migration epoch (dual-read + write
  forwarding) and the parent groups whose database changed (consistent
  hashing keeps the moved fraction near the theoretical minimum) move
  in idempotent, batched steps while ingest and queries keep running.
"""

from repro.rescale.migrate import (
    LiveRescaler,
    MigrationStats,
    add_server,
    migrate_live,
)

__all__ = [
    "MigrationStats",
    "LiveRescaler",
    "migrate_live",
    "add_server",
]
