"""Persistence integration: data survives a full service restart.

The paper runs HEPnOS with RocksDB on node-local SSD when persistence
beyond the job is needed.  These tests shut the whole service down and
redeploy over the same storage paths.
"""

import pytest

from repro.bedrock import BedrockServer, default_hepnos_config
from repro.hepnos import DataStore, PEPOptions, WriteBatch, vector_of
from repro.mercury import Fabric
from repro.serial import serializable


@serializable("persist.Track")
class Track:
    def __init__(self, length=0.0):
        self.length = length

    def serialize(self, ar):
        self.length = ar.io(self.length)

    def __eq__(self, other):
        return self.length == other.length


def deploy_persistent(fabric, storage_root, backend="lsm"):
    return BedrockServer(fabric, default_hepnos_config(
        "sm://node0/hepnos", num_providers=2,
        event_databases=2, product_databases=2,
        run_databases=1, subrun_databases=1,
        backend=backend, storage_root=str(storage_root),
    ))


@pytest.mark.parametrize("backend", ["lsm"])
def test_service_restart_preserves_everything(tmp_path, backend):
    # ---- first life: write ------------------------------------------------
    fabric1 = Fabric()
    server1 = deploy_persistent(fabric1, tmp_path, backend)
    datastore1 = DataStore.connect(fabric1, [server1])
    ds = datastore1.create_dataset("persist/sample")
    with WriteBatch(datastore1) as batch:
        subrun = ds.create_run(7, batch=batch).create_subrun(3, batch=batch)
        for e in range(25):
            event = subrun.create_event(e, batch=batch)
            event.store([Track(float(e))], label="tracks", batch=batch)
    server1.shutdown()  # closes (and flushes) every backend

    # ---- second life: a brand new fabric over the same storage -------------
    fabric2 = Fabric()
    server2 = deploy_persistent(fabric2, tmp_path, backend)
    datastore2 = DataStore.connect(fabric2, [server2])
    ds2 = datastore2["persist/sample"]
    events = list(ds2[7][3])
    assert [e.number for e in events] == list(range(25))
    for e, event in enumerate(events):
        assert event.load(vector_of(Track), label="tracks") == [Track(float(e))]


def test_uuid_mapping_survives_restart(tmp_path):
    fabric1 = Fabric()
    server1 = deploy_persistent(fabric1, tmp_path)
    datastore1 = DataStore.connect(fabric1, [server1])
    uuid_before = datastore1.create_dataset("a/b/c").uuid
    server1.shutdown()

    fabric2 = Fabric()
    server2 = deploy_persistent(fabric2, tmp_path)
    datastore2 = DataStore.connect(fabric2, [server2])
    assert datastore2.dataset_uuid("a/b/c") == uuid_before
    # Re-creating resolves to the same dataset, not a new identity.
    assert datastore2.create_dataset("a/b/c").uuid == uuid_before


def test_restart_after_unflushed_writes(tmp_path):
    """LSM WAL recovery through the full service stack."""
    fabric1 = Fabric()
    server1 = deploy_persistent(fabric1, tmp_path)
    datastore1 = DataStore.connect(fabric1, [server1])
    ds = datastore1.create_dataset("wal")
    subrun = ds.create_run(1).create_subrun(1)
    subrun.create_event(42)
    # No explicit flush: simulate an abrupt stop by only closing files.
    for provider in server1.providers.values():
        for db in provider.databases.values():
            db.close()
    server1.margo.finalize()

    fabric2 = Fabric()
    server2 = deploy_persistent(fabric2, tmp_path)
    datastore2 = DataStore.connect(fabric2, [server2])
    assert [e.number for e in datastore2["wal"][1][1]] == [42]


def test_mixed_workflow_after_restart(tmp_path):
    """Ingest before restart, select after: the multi-pass use case
    (the paper: analyses iterate over a dataset many times)."""
    from repro.nova import GeneratorConfig, generate_file_set
    from repro.workflows import HEPnOSWorkflow

    sample = generate_file_set(
        str(tmp_path / "files"), num_files=3, mean_events_per_file=10,
        config=GeneratorConfig(signal_fraction=0.1, events_per_subrun=16,
                               subruns_per_run=4),
    )
    fabric1 = Fabric()
    server1 = deploy_persistent(fabric1, tmp_path / "store")
    datastore1 = DataStore.connect(fabric1, [server1])
    workflow1 = HEPnOSWorkflow(datastore1, "nova/persist",
                               pep_options=PEPOptions(input_batch_size=64))
    workflow1.ingest(sample.paths)
    first = workflow1.select(num_ranks=1)
    server1.shutdown()

    fabric2 = Fabric()
    server2 = deploy_persistent(fabric2, tmp_path / "store")
    datastore2 = DataStore.connect(fabric2, [server2])
    workflow2 = HEPnOSWorkflow(datastore2, "nova/persist",
                               pep_options=PEPOptions(input_batch_size=64))
    second = workflow2.select(num_ranks=1)
    assert second.accepted_ids == first.accepted_ids
    assert second.events_processed == sample.total_events
