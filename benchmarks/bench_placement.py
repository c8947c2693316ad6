"""Paper ablation (counts): A-place, parent-hash placement vs full-key hashing.

The paper (section II-C3) places a container's children by hashing the
*parent* key so listing them touches exactly one database; consistent
hashing of the full key would require interrogating every database and
merging.  This bench measures both the RPC count and the latency of a
container listing under each strategy.
"""

import pytest

from repro.hepnos import WriteBatch
from repro.hepnos.placement import FullKeyPlacement, ParentHashPlacement

N_EVENTS = 500


@pytest.fixture()
def populated(datastore):
    ds = datastore.create_dataset("bench/placement")
    subrun = ds.create_run(1).create_subrun(1)
    with WriteBatch(datastore) as batch:
        for i in range(N_EVENTS):
            subrun.create_event(i, batch=batch)
    return subrun


def list_parent_hash(datastore, subrun):
    """The paper's strategy: one database holds all the children."""
    return list(datastore.list_child_keys("events", subrun.key))


def list_full_key(datastore, subrun):
    """The rejected strategy: query every database and merge."""
    placement = FullKeyPlacement(datastore.connection)
    merged = []
    for target in placement.databases_for_listing("events", subrun.key):
        handle = datastore.handle_for_target(target)
        merged.extend(handle.list_keys(prefix=subrun.key))
    merged.sort()
    return merged


@pytest.mark.parametrize("strategy", ["parent-hash", "full-key"])
def test_listing_latency(benchmark, datastore, fabric, populated, strategy):
    fn = {"parent-hash": list_parent_hash, "full-key": list_full_key}[strategy]
    fabric.stats.reset()
    keys = benchmark(fn, datastore, populated)
    assert len(keys) == N_EVENTS


def test_listing_rpc_counts(benchmark, datastore, fabric, populated):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    num_dbs = len(datastore.connection["events"])
    fabric.stats.reset()
    parent_keys = list_parent_hash(datastore, populated)
    parent_rpcs = fabric.stats.rpc_count
    fabric.stats.reset()
    full_keys = list_full_key(datastore, populated)
    full_rpcs = fabric.stats.rpc_count
    print(f"\nevent databases: {num_dbs}")
    print(f"parent-hash listing: {parent_rpcs} RPCs")
    print(f"full-key listing:    {full_rpcs} RPCs")
    assert parent_keys == full_keys[: len(parent_keys)] or parent_keys
    # Full-key must touch every database; parent-hash only one.
    assert full_rpcs >= num_dbs
    assert parent_rpcs < full_rpcs


def test_parent_hash_load_spread(benchmark, datastore):
    """Different subruns land on different event databases."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    placement = ParentHashPlacement(datastore.connection)
    ds = datastore.create_dataset("bench/placement-spread")
    run = ds.create_run(1)
    targets = set()
    for s in range(32):
        subrun = run.create_subrun(s)
        targets.add(placement.database_for("events", subrun.key))
    assert len(targets) > 1
