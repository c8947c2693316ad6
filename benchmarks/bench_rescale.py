"""A-rescale ablation: storage rescaling cost and minimality.

The paper cites Pufferscale [27]: rescaling "could further improve
HEPnOS's potential by allowing users to add and remove storage
resources while HEP applications are using it."  Measures migration
throughput and verifies the consistent-hashing minimal-move property.
"""

from repro.bedrock import BedrockServer, default_hepnos_config
from repro.hepnos import WriteBatch
from repro.rescale import LiveRescaler, add_server, migrate_live
from repro.serial import serializable


@serializable("benchr.Payload")
class Payload:
    def __init__(self, data=b""):
        self.data = data

    def serialize(self, ar):
        self.data = ar.io(self.data)


def populate(datastore, tag, events=200):
    ds = datastore.create_dataset(f"bench/rescale-{tag}")
    with WriteBatch(datastore) as batch:
        subrun = ds.create_run(1, batch=batch).create_subrun(1, batch=batch)
        for e in range(events):
            event = subrun.create_event(e, batch=batch)
            event.store(Payload(b"x" * 200), label="p", batch=batch)


def extra_server(fabric, index):
    return BedrockServer(fabric, default_hepnos_config(
        f"sm://resize{index}/hepnos", num_providers=4,
        event_databases=4, product_databases=4,
        run_databases=2, subrun_databases=2,
    ))


def test_plan_cost(benchmark, fabric, datastore):
    """``begin`` swaps the epoch and plans the moves by scanning the old
    placement; it runs once per migration, so it is timed once."""
    populate(datastore, "plan")
    joined = add_server(datastore.connection, extra_server(fabric, 0))
    rescaler = LiveRescaler(datastore, joined)
    benchmark.pedantic(rescaler.begin, rounds=1, iterations=1)
    assert rescaler.remaining_keys + rescaler.stats.keys_stayed > 0


def test_migration_throughput(benchmark, fabric, datastore):
    populate(datastore, "exec", events=300)
    counter = {"i": 0}

    def grow_once():
        counter["i"] += 1
        joined = add_server(datastore.connection,
                            extra_server(fabric, counter["i"]))
        return migrate_live(datastore, joined)

    stats = benchmark.pedantic(grow_once, rounds=2, iterations=1)
    print(f"\nlast grow: moved {stats.keys_moved} keys "
          f"({stats.bytes_moved} B), {stats.moved_fraction:.1%} of data")


def test_minimal_movement_property(benchmark, fabric, datastore):
    """Adding 1/(n+1) of capacity should move roughly that fraction."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    populate(datastore, "minimal", events=400)
    joined = add_server(datastore.connection, extra_server(fabric, 90))
    fraction = migrate_live(datastore, joined).moved_fraction
    # 2 old nodes + 1 new node of equal capacity: expect ~1/3 moved;
    # placement granularity is the parent group, so allow a wide band.
    print(f"\nmoved fraction: {fraction:.1%} (ideal ~33%)")
    assert 0.05 < fraction < 0.65
