"""Tests for Margo instances and Bedrock configuration/bootstrap."""

import json

import pytest

from repro.bedrock import (
    BedrockServer,
    default_hepnos_config,
    deploy_service_group,
    validate_config,
)
from repro.errors import ConfigError
from repro.margo import MargoInstance
from repro.mercury import Engine, Fabric
from repro.yokan import YokanClient


MINIMAL = {
    "margo": {"mercury": {"address": "sm://node0/svc"}},
    "providers": [],
}


def make_config(**overrides):
    config = json.loads(json.dumps(MINIMAL))
    config.update(overrides)
    return config


class TestMargoInstance:
    def test_default_layout(self):
        fabric = Fabric()
        margo = MargoInstance(fabric, "sm://n0/svc")
        assert "__primary__" in margo.pools
        assert margo.address.node == "n0"

    def test_custom_pools_and_xstreams(self):
        fabric = Fabric()
        margo = MargoInstance(fabric, "sm://n0/svc", argobots_config={
            "pools": [{"name": "a"}, {"name": "b", "kind": "fifo"}],
            "xstreams": [{"name": "es", "pools": ["a", "b"]}],
        })
        assert set(margo.pools) == {"a", "b"}
        assert margo.pool("a") is margo.pools["a"]

    def test_unknown_pool_reference(self):
        fabric = Fabric()
        with pytest.raises(ConfigError, match="unknown pool"):
            MargoInstance(fabric, "sm://n0/svc", argobots_config={
                "pools": [{"name": "a"}],
                "xstreams": [{"name": "es", "pools": ["ghost"]}],
            })

    def test_duplicate_pool_name(self):
        fabric = Fabric()
        with pytest.raises(ConfigError, match="duplicate"):
            MargoInstance(fabric, "sm://n0/svc", argobots_config={
                "pools": [{"name": "a"}, {"name": "a"}],
            })

    def test_prio_pool_kind_refused_by_name(self):
        fabric = Fabric()
        with pytest.raises(ConfigError, match="pool 'b': unknown kind 'prio'"):
            MargoInstance(fabric, "sm://n0/svc", argobots_config={
                "pools": [{"name": "a"}, {"name": "b", "kind": "prio"}],
            })

    def test_pool_lookup_error(self):
        fabric = Fabric()
        margo = MargoInstance(fabric, "sm://n0/svc")
        with pytest.raises(ConfigError):
            margo.pool("missing")


class TestValidateConfig:
    def test_minimal_valid(self):
        assert validate_config(MINIMAL) == MINIMAL

    def test_json_text_accepted(self):
        assert validate_config(json.dumps(MINIMAL))["margo"]

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            validate_config("{nope")

    def test_missing_margo(self):
        with pytest.raises(ConfigError, match="margo"):
            validate_config({})

    def test_missing_address(self):
        with pytest.raises(ConfigError, match="address"):
            validate_config({"margo": {"mercury": {}}})

    def test_bad_pool_kind(self):
        config = make_config()
        config["margo"]["argobots"] = {"pools": [{"name": "p", "kind": "weird"}]}
        with pytest.raises(ConfigError, match="unknown kind"):
            validate_config(config)

    def test_prio_pool_kind_refused_by_name(self):
        config = make_config()
        config["margo"]["argobots"] = {"pools": [{"name": "p", "kind": "prio"}]}
        with pytest.raises(ConfigError,
                           match=r"pool 'p': unknown kind 'prio' \(known: \['fifo'\]\)"):
            validate_config(config)

    def test_unknown_provider_type(self):
        config = make_config(providers=[{"name": "x", "type": "sdskv",
                                         "provider_id": 0}])
        with pytest.raises(ConfigError, match="unknown provider type"):
            validate_config(config)

    def test_duplicate_provider_id(self):
        config = make_config(providers=[
            {"name": "a", "type": "yokan", "provider_id": 0},
            {"name": "b", "type": "yokan", "provider_id": 0},
        ])
        with pytest.raises(ConfigError, match="duplicate provider_id"):
            validate_config(config)

    def test_unknown_backend(self):
        config = make_config(providers=[{
            "name": "a", "type": "yokan", "provider_id": 0,
            "config": {"databases": [{"name": "d", "type": "rocksdb"}]},
        }])
        with pytest.raises(ConfigError, match="unknown backend"):
            validate_config(config)

    def test_duplicate_database_name(self):
        config = make_config(providers=[{
            "name": "a", "type": "yokan", "provider_id": 0,
            "config": {"databases": [{"name": "d"}, {"name": "d"}]},
        }])
        with pytest.raises(ConfigError, match="duplicate database"):
            validate_config(config)

    def test_provider_unknown_pool(self):
        config = make_config(providers=[{
            "name": "a", "type": "yokan", "provider_id": 0, "pool": "ghost",
        }])
        with pytest.raises(ConfigError, match="unknown pool"):
            validate_config(config)


class TestDefaultHEPnOSConfig:
    def test_paper_layout(self):
        config = default_hepnos_config("sm://n0/hepnos", num_providers=16,
                                       event_databases=8, product_databases=8)
        assert len(config["providers"]) == 16
        assert len(config["margo"]["argobots"]["pools"]) == 16
        assert len(config["margo"]["argobots"]["xstreams"]) == 16
        names = [
            db["name"]
            for p in config["providers"]
            for db in p["config"]["databases"]
        ]
        assert sum(1 for n in names if n.startswith("events-")) == 8
        assert sum(1 for n in names if n.startswith("products-")) == 8

    def test_persistent_backend_needs_root(self):
        with pytest.raises(ConfigError, match="storage_root"):
            default_hepnos_config("sm://n0/h", backend="lsm")

    def test_persistent_backend_paths(self, tmp_path):
        config = default_hepnos_config("sm://n0/h", backend="lsm",
                                       storage_root=str(tmp_path))
        db = config["providers"][0]["config"]["databases"][0]
        assert db["config"]["path"].startswith(str(tmp_path))


class TestBedrockServer:
    def test_spin_up_and_use(self):
        fabric = Fabric()
        server = BedrockServer(fabric, default_hepnos_config(
            "sm://n0/hepnos", num_providers=4,
            event_databases=2, product_databases=2,
            run_databases=1, subrun_databases=1,
        ))
        assert "events-0" in server.databases()
        pid = server.database_directory["events-0"]
        client_engine = Engine(fabric, "sm://c0/client")
        client = YokanClient(client_engine)
        handle = client.database_handle(server.address, pid, "events-0")
        handle.put(b"k", b"v")
        assert handle.get(b"k") == b"v"

    def test_describe_roundtrips(self):
        fabric = Fabric()
        server = BedrockServer(fabric, MINIMAL)
        assert json.loads(server.describe()) == MINIMAL

    def test_shutdown(self):
        fabric = Fabric()
        server = BedrockServer(fabric, default_hepnos_config(
            "sm://n0/hepnos", num_providers=2, event_databases=1,
            product_databases=1, run_databases=1, subrun_databases=1,
        ))
        server.shutdown()
        assert all(
            db.closed
            for p in server.providers.values()
            for db in p.databases.values()
        )

    def test_deploy_service_group(self):
        fabric = Fabric()
        configs = [
            default_hepnos_config(f"sm://n{i}/hepnos", num_providers=2,
                                  event_databases=1, product_databases=1,
                                  run_databases=1, subrun_databases=1)
            for i in range(3)
        ]
        servers = deploy_service_group(fabric, configs)
        assert len(servers) == 3
        assert len({s.address for s in servers}) == 3

    def test_deploy_empty_group_rejected(self):
        with pytest.raises(ConfigError):
            deploy_service_group(Fabric(), [])

    def test_persistent_databases(self, tmp_path):
        fabric = Fabric()
        server = BedrockServer(fabric, default_hepnos_config(
            "sm://n0/hepnos", num_providers=2, event_databases=1,
            product_databases=1, run_databases=1, subrun_databases=1,
            backend="lsm", storage_root=str(tmp_path),
        ))
        pid = server.database_directory["events-0"]
        client = YokanClient(Engine(fabric, "sm://c0/client"))
        handle = client.database_handle(server.address, pid, "events-0")
        handle.put(b"k", b"v")
        assert handle.get(b"k") == b"v"
        assert (tmp_path / "events-0").exists()
