"""Bedrock configuration schema and validation.

A configuration looks like::

    {
      "margo": {
        "mercury": {"address": "sm://node0/hepnos-0"},
        "argobots": {
          "pools":    [{"name": "pool-0", "kind": "fifo"}],
          "xstreams": [{"name": "es-0", "pools": ["pool-0"]}]
        },
        "rpc_pool": "pool-0"
      },
      "providers": [
        {
          "name": "yokan-0",
          "type": "yokan",
          "provider_id": 0,
          "pool": "pool-0",
          "config": {
            "databases": [
              {"name": "events-0", "type": "map", "config": {}}
            ]
          }
        }
      ]
    }

:func:`default_hepnos_config` builds the paper's server layout: 16
providers each mapped to its own execution stream, together serving 8
event databases and 8 product databases (section IV-D).
"""

from __future__ import annotations

import json
from typing import Optional, Union

from repro.errors import ConfigError
from repro.faults.retry import RetryPolicy
from repro.margo.instance import check_pool_kind
from repro.yokan.backend import BACKEND_KINDS

_KNOWN_PROVIDER_TYPES = {"yokan"}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def validate_config(config: Union[str, dict]) -> dict:
    """Parse (if JSON text) and validate a Bedrock configuration.

    Returns the validated dict; raises :class:`ConfigError` with a
    precise message on any inconsistency.
    """
    if isinstance(config, str):
        try:
            config = json.loads(config)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from None
    _require(isinstance(config, dict), "configuration must be an object")

    margo = config.get("margo")
    _require(isinstance(margo, dict), "missing 'margo' section")
    mercury = margo.get("mercury")
    _require(isinstance(mercury, dict), "missing 'margo.mercury' section")
    _require(
        isinstance(mercury.get("address"), str) and mercury["address"],
        "missing 'margo.mercury.address'",
    )

    argobots = margo.get("argobots", {})
    _require(isinstance(argobots, dict), "'margo.argobots' must be an object")
    pool_names: set[str] = set()
    for spec in argobots.get("pools", []):
        _require(isinstance(spec, dict), "pool specs must be objects")
        name = spec.get("name")
        _require(bool(name), "every pool needs a name")
        _require(name not in pool_names, f"duplicate pool {name!r}")
        check_pool_kind(spec)
        pool_names.add(name)
    for spec in argobots.get("xstreams", []):
        _require(isinstance(spec, dict), "xstream specs must be objects")
        name = spec.get("name")
        _require(bool(name), "every xstream needs a name")
        pools = spec.get("pools", [])
        _require(bool(pools), f"xstream {name!r} has no pools")
        for pool in pools:
            _require(
                pool in pool_names,
                f"xstream {name!r} references unknown pool {pool!r}",
            )
    rpc_pool = margo.get("rpc_pool")
    if rpc_pool is not None:
        _require(
            rpc_pool in pool_names,
            f"rpc_pool {rpc_pool!r} is not a defined pool",
        )

    provider_ids: set[int] = set()
    database_names: set[str] = set()
    for provider in config.get("providers", []):
        _require(isinstance(provider, dict), "provider specs must be objects")
        ptype = provider.get("type")
        _require(
            ptype in _KNOWN_PROVIDER_TYPES,
            f"unknown provider type {ptype!r} (known: {sorted(_KNOWN_PROVIDER_TYPES)})",
        )
        pid = provider.get("provider_id")
        _require(
            isinstance(pid, int) and pid >= 0,
            f"provider {provider.get('name')!r}: provider_id must be a "
            "non-negative integer",
        )
        _require(pid not in provider_ids, f"duplicate provider_id {pid}")
        provider_ids.add(pid)
        pool = provider.get("pool")
        if pool is not None:
            _require(
                pool in pool_names,
                f"provider {provider.get('name')!r} references unknown pool {pool!r}",
            )
        pconfig = provider.get("config", {})
        for db in pconfig.get("databases", []):
            _require(isinstance(db, dict), "database specs must be objects")
            db_name = db.get("name")
            _require(bool(db_name), "every database needs a name")
            _require(
                db_name not in database_names,
                f"duplicate database name {db_name!r}",
            )
            database_names.add(db_name)
            db_type = db.get("type", "map")
            _require(
                db_type in BACKEND_KINDS,
                f"database {db_name!r}: unknown backend {db_type!r} "
                f"(known: {sorted(BACKEND_KINDS)})",
            )

    replication = config.get("replication")
    if replication is not None:
        _require(
            isinstance(replication, int) and replication >= 1,
            "'replication' must be an integer >= 1",
        )

    client = config.get("client")
    if client is not None:
        _require(isinstance(client, dict), "'client' section must be an object")
        retry = client.get("retry")
        if retry is not None:
            _require(isinstance(retry, dict),
                     "'client.retry' must be an object")
            try:
                RetryPolicy.from_config(retry)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad 'client.retry' settings: {exc}") from None

    tenants = config.get("tenants")
    if tenants is not None:
        _require(isinstance(tenants, dict),
                 "'tenants' section must be an object")
        from repro.broker import RequestBroker

        try:
            RequestBroker.from_config(tenants)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad 'tenants' settings: {exc}") from None
    return config


def default_hepnos_config(
    address: str,
    num_providers: int = 16,
    event_databases: int = 8,
    product_databases: int = 8,
    dataset_databases: int = 1,
    run_databases: int = 4,
    subrun_databases: int = 4,
    backend: str = "map",
    backend_config: Optional[dict] = None,
    storage_root: Optional[str] = None,
    client: Optional[dict] = None,
    durability_root: Optional[str] = None,
    wal_checkpoint_bytes: Optional[int] = None,
    wal_sync: bool = False,
    replication: Optional[int] = None,
    tenants: Optional[dict] = None,
) -> dict:
    """The paper's server layout as a Bedrock configuration.

    Providers are assigned round-robin one pool + xstream each; the
    databases of each container type are spread round-robin over the
    providers.  ``storage_root`` is required for persistent backends and
    is suffixed with the database name per instance.  ``client`` is an
    optional client-settings section (e.g. ``{"retry": {...}}``) that
    :func:`~repro.hepnos.connection_from_servers` propagates to every
    connecting DataStore.

    ``durability_root`` stamps ``wal_path =
    <durability_root>/<db_name>.wal`` on every database.  What lives
    there depends on the backend kind (see
    :func:`~repro.yokan.backend.open_backend`): ``map``
    keeps a write-ahead log at that path (checkpointed at
    ``wal_checkpoint_bytes``), and a server restarted after
    ``crash(lose_state=True)`` replays checkpoint + log; ``lsm`` is
    durable through the log inside its own ``storage_root`` directory
    and creates nothing under ``durability_root``.  ``wal_sync`` makes
    whichever log a database has fsync each record before the write is
    acknowledged.

    ``replication`` (when >= 2) is recorded in the config and picked up
    by ``connection_from_servers`` so clients and the replication
    wiring agree on the copy count.

    ``tenants`` enables the multi-tenant request broker
    (:class:`~repro.broker.RequestBroker`): a dict with optional
    ``slots`` (default 8), ``interactive_reserve`` (in ``[0, slots)``;
    default ``min(2, slots - 1)``) and ``slow_query_s`` settings, a
    ``registry`` mapping tenant ids to their service terms (priority,
    rate, burst, bytes-in-flight quota, token), and a ``default`` spec
    for unregistered tenants (an explicit ``None`` closes the
    registry to registered tenants only).
    """
    if backend != "map" and storage_root is None:
        raise ConfigError(f"backend {backend!r} needs a storage_root")
    pools = [{"name": f"pool-{i}", "kind": "fifo"} for i in range(num_providers)]
    xstreams = [
        {"name": f"es-{i}", "pools": [f"pool-{i}"]} for i in range(num_providers)
    ]

    def db_spec(name: str) -> dict:
        config = dict(backend_config or {})
        if backend != "map":
            config["path"] = f"{storage_root}/{name}"
        if durability_root is not None:
            config["wal_path"] = f"{durability_root}/{name}.wal"
            if wal_checkpoint_bytes is not None:
                config["wal_checkpoint_bytes"] = int(wal_checkpoint_bytes)
        if wal_sync:
            config["wal_sync"] = True
        return {"name": name, "type": backend, "config": config}

    databases_per_provider: list[list[dict]] = [[] for _ in range(num_providers)]
    idx = 0
    for kind, count in (
        ("datasets", dataset_databases),
        ("runs", run_databases),
        ("subruns", subrun_databases),
        ("events", event_databases),
        ("products", product_databases),
    ):
        for i in range(count):
            databases_per_provider[idx % num_providers].append(
                db_spec(f"{kind}-{i}")
            )
            idx += 1

    providers = []
    for pid in range(num_providers):
        providers.append({
            "name": f"yokan-{pid}",
            "type": "yokan",
            "provider_id": pid,
            "pool": f"pool-{pid}",
            "config": {"databases": databases_per_provider[pid]},
        })
    config = {
        "margo": {
            "mercury": {"address": address},
            "argobots": {"pools": pools, "xstreams": xstreams},
            "rpc_pool": "pool-0",
        },
        "providers": providers,
    }
    if client is not None:
        config["client"] = client
    if replication is not None:
        config["replication"] = int(replication)
    if tenants is not None:
        config["tenants"] = tenants
    return validate_config(config)
