"""Shared fixtures: a small deployed HEPnOS service on a loopback fabric."""

import pytest

from repro.bedrock import BedrockServer, default_hepnos_config
from repro.hepnos import DataStore
from repro.mercury import Fabric, FaultModel
from repro.nova import BEAM, NovaGenerator, write_nova_file


def deploy(fabric, num_nodes=2, backend="map", storage_root=None,
           num_providers=4, event_databases=4, product_databases=4,
           run_databases=2, subrun_databases=2, threaded=False):
    """Deploy a HEPnOS service group and return the server list."""
    servers = []
    for i in range(num_nodes):
        root = f"{storage_root}/node{i}" if storage_root else None
        config = default_hepnos_config(
            f"sm://node{i}/hepnos",
            num_providers=num_providers,
            event_databases=event_databases,
            product_databases=product_databases,
            run_databases=run_databases,
            subrun_databases=subrun_databases,
            dataset_databases=1,
            backend=backend,
            storage_root=root,
        )
        servers.append(BedrockServer(fabric, config))
    return servers


def shards(servers):
    """``(address, database name) -> {key: value}`` of every backend."""
    return {(str(server.address), name): dict(backend.scan())
            for server in servers
            for provider in server.providers.values()
            for name, backend in provider.databases.items()}


class FlakyModel(FaultModel):
    """Drops the first ``n`` messages, then behaves."""

    def __init__(self, n: int):
        self.remaining = self.n = n

    @property
    def dropped(self) -> int:
        return self.n - self.remaining

    def should_drop(self, src, dst, nbytes) -> bool:
        if self.remaining > 0:
            self.remaining -= 1
            return True
        return False


@pytest.fixture()
def fabric():
    return Fabric(threaded=True)


@pytest.fixture()
def service(fabric):
    servers = deploy(fabric)
    fabric.runtime.start()
    yield servers
    fabric.runtime.shutdown()


@pytest.fixture()
def datastore(fabric, service):
    return DataStore.connect(fabric, service)


@pytest.fixture()
def nova_file(tmp_path):
    """A two-subrun CAF-like file and the (run, subrun, event)s in it."""
    generator = NovaGenerator(BEAM)
    path = str(tmp_path / "nova.h5l")
    triples = [(1000, 0, e) for e in range(8)] + [(1000, 1, e) for e in range(8)]
    write_nova_file(path, generator, triples)
    return path, triples
