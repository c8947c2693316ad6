"""BedrockServer: instantiate a configured service process."""

from __future__ import annotations

import dataclasses
import json
from typing import Iterable, Iterator, Union

from repro.errors import ConfigError
from repro.faults.retry import RetryPolicy
from repro.margo import MargoInstance
from repro.mercury import Fabric
from repro.yokan import YokanProvider
from repro.yokan.backend import Backend, DurabilityStats, open_backend
from repro.yokan.backends.lsm import LSMBackend
from repro.bedrock.config import validate_config


class BedrockServer:
    """One service process built from a Bedrock configuration.

    Exposes the Margo instance, the provider objects, and a directory of
    which provider serves which database -- the piece of information
    HEPnOS clients need to route container keys.

    Servers can :meth:`crash` (abrupt death: the engine deregisters and
    in-flight RPCs fail with retryable address errors) and
    :meth:`restart` at the same address.  By default the database
    backends -- the stand-in for durable storage -- survive the crash,
    so a restarted server serves exactly the data it held when it died.
    ``crash(lose_state=True)`` drops them instead: the restart rebuilds
    every backend from its configuration, so only state a durable
    backend recovers (log replay) or that a replica re-syncs comes back.
    """

    def __init__(self, fabric: Fabric, config: Union[str, dict]):
        self.config = validate_config(config)
        self.fabric = fabric
        #: persistent backend objects, keyed by provider id then
        #: database name; built once and reused across restarts --
        #: unless a lose-state crash dropped them.
        self._backends: dict[int, dict[str, Backend]] = {}
        #: db name -> (backup address, provider id, db name) replica
        #: wiring, re-applied to fresh providers on every (re)start.
        self._replication: dict[str, tuple[str, int, str]] = {}
        self._generation = 0
        self.running = False
        self._start()

    def _start(self) -> None:
        margo_config = self.config["margo"]
        tag = f"g{self._generation}" if self._generation else ""
        self.margo = MargoInstance(
            self.fabric,
            margo_config["mercury"]["address"],
            argobots_config=margo_config.get("argobots"),
            tag=tag,
            # Addressable only once every provider below has registered:
            # a request racing a restart sees a dead address, never an
            # engine without its handlers (a non-retryable NoSuchRPCError).
            listen=False,
        )
        #: the multi-tenant request broker, shared by every provider of
        #: this server; ``None`` when the config has no ``tenants``
        #: section (admission control off, the unbrokered fast path).
        #: Rebuilt per (re)start: admission state does not survive a
        #: crash, exactly like the in-flight requests it tracked.
        self.broker = None
        tenants_config = self.config.get("tenants")
        if tenants_config is not None:
            from repro.broker import RequestBroker

            self.broker = RequestBroker.from_config(tenants_config)
        self.providers: dict[int, YokanProvider] = {}
        #: database name -> (provider_id,) routing directory.
        self.database_directory: dict[str, int] = {}
        for spec in self.config.get("providers", []):
            pid = spec["provider_id"]
            databases = self._backends.get(pid)
            if databases is None:
                databases = {}
                for db_spec in spec.get("config", {}).get("databases", []):
                    backend = open_backend(
                        db_spec.get("type", "map"), **db_spec.get("config", {})
                    )
                    databases[db_spec["name"]] = backend
                self._backends[pid] = databases
            pool_name = spec.get("pool")
            pool = self.margo.pool(pool_name) if pool_name else None
            provider = YokanProvider(
                self.margo.engine,
                provider_id=pid,
                pool=pool,
                databases=databases,
                broker=self.broker,
            )
            self.providers[pid] = provider
            for db_name in databases:
                self.database_directory[db_name] = pid
        self.margo.engine.listen()
        self.running = True
        if self._replication:
            self._apply_replication()

    @property
    def address(self):
        return self.margo.address

    @property
    def client_config(self):
        """The optional ``client`` settings section of the config."""
        return self.config.get("client")

    def databases(self) -> list[str]:
        return sorted(self.database_directory)

    def tenant_stats(self) -> dict:
        """Broker snapshot (per-tenant gauges + slow queries); {} if off."""
        if self.broker is None:
            return {}
        return self.broker.tenant_stats()

    def describe(self) -> str:
        """The effective configuration as JSON (bedrock's query API)."""
        return json.dumps(self.config, indent=2)

    # -- replication wiring --------------------------------------------------

    def set_replication(self, links: dict[str, tuple[str, int, str]]
                        ) -> None:
        """Forward acknowledged writes of each database to its backup.

        ``links`` maps a local database name to its backup's
        ``(address, provider_id, database name)``.  The wiring is
        remembered and re-applied after every restart (fresh providers
        need fresh handles on the new engine).
        """
        self._replication = dict(links)
        if self.running:
            self._apply_replication()

    def _apply_replication(self) -> None:
        from repro.yokan.client import YokanClient

        client = YokanClient(
            self.margo.engine,
            retry_policy=RetryPolicy(max_attempts=4, base_delay=0.001,
                                     max_delay=0.01, deadline=2.0,
                                     rpc_timeout=0.25),
        )
        for db_name, (address, pid, backup_name) in self._replication.items():
            owner = self.database_directory.get(db_name)
            if owner is None:
                continue
            handle = client.database_handle(address, pid, backup_name)
            self.providers[owner].set_replica(db_name, handle)

    def flush_replication(self) -> int:
        """Drain every provider's replica links; returns futures waited."""
        return sum(p.flush_replication() for p in self.providers.values())

    # -- durability ----------------------------------------------------------

    def _all_backends(self) -> Iterator[Backend]:
        for backends in self._backends.values():
            yield from backends.values()

    def checkpoint(self) -> int:
        """Force a checkpoint on every durable backend; returns the count."""
        count = 0
        for backend in self._all_backends():
            if backend.durable:
                backend.checkpoint()
                count += 1
        return count

    def durability_stats(self) -> dict[str, object]:
        """Every backend's :class:`DurabilityStats` summed field by field
        (``wal_records``, ``wal_bytes``, ``checkpoints``,
        ``replayed_records``, ``replayed_keys``, ``replay_seconds``,
        ``torn_tail_bytes``), plus the replica links' ``replica_forwarded``
        and ``replica_failures``."""
        out = {f.name: f.default for f in dataclasses.fields(DurabilityStats)}
        for backend in self._all_backends():
            stats = backend.durability_stats()
            for name in out:
                out[name] += getattr(stats, name)
        out["replica_forwarded"] = out["replica_failures"] = 0
        for provider in self.providers.values():
            for link in provider.replica_links().values():
                out["replica_forwarded"] += link.forwarded
                out["replica_failures"] += link.failed
        return out

    def storage_stats(self) -> dict[str, dict]:
        """Per-database storage-engine stats (``LSMBackend.lsm_stats()``),
        for the databases that run on the LSM engine."""
        out: dict[str, dict] = {}
        for backends in self._backends.values():
            for name, backend in backends.items():
                if isinstance(backend, LSMBackend):
                    out[name] = backend.lsm_stats()
        return out

    def crash(self, lose_state: bool = False) -> None:
        """Kill the server abruptly (fault injection).

        The engine deregisters, so anything sent to this address raises
        a retryable :class:`~repro.errors.AddressError` until
        :meth:`restart`.  By default backends are *not* closed -- they
        model the durable storage a real crash leaves behind.  With
        ``lose_state=True`` they are crashed (no flush) and dropped, so
        the restart must rebuild them from configuration: durable
        backends replay their WAL, volatile ones come back empty and
        rely on a replica re-sync.
        """
        if not self.running:
            return
        self.running = False
        # Deregister first: new RPCs fail with a retryable AddressError
        # before the backends start refusing work.  A handler already
        # mid-execution when the backends crash sees an AddressError
        # from the crashed backend itself, so either way the client
        # observes a dead server, never a half-shut-down one.
        self.margo.finalize()
        if lose_state:
            for backend in self._all_backends():
                backend.crash()
            self._backends.clear()

    def restart(self) -> None:
        """Bring a crashed server back at the same address.

        Rebuilds the Margo instance and providers from the original
        configuration, re-attaching the surviving backends.
        """
        if self.running:
            return
        self._generation += 1
        self._start()

    def shutdown(self) -> None:
        self.running = False
        for backend in self._all_backends():
            backend.close()
        self.margo.finalize()


def deploy_service_group(fabric: Fabric, configs: Iterable[Union[str, dict]]
                         ) -> list[BedrockServer]:
    """Start several Bedrock servers (one per config) on one fabric.

    This stands in for launching ``bedrock`` on every service node of
    the allocation; the paper deploys one server node per 8 nodes.
    """
    servers = [BedrockServer(fabric, config) for config in configs]
    if not servers:
        raise ConfigError("a service group needs at least one server")
    return servers
