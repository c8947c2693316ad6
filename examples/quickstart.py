#!/usr/bin/env python
"""Quickstart: the paper's Listing 1, in Python.

Deploys a small HEPnOS service in-process (two "nodes" of Yokan
providers bootstrapped by Bedrock), opens a tenant session with
``repro.hepnos.connect`` (the single public entry point), and walks
the dataset/run/subrun/event hierarchy storing and loading products.

Run:  python examples/quickstart.py
"""

from repro.bedrock import BedrockServer, default_hepnos_config
from repro.hepnos import Prefetcher, vector_of
import repro.hepnos as hepnos
from repro.mercury import Fabric
from repro.serial import serializable


# The example structure from Listing 1: any class with a serialize
# method (or any dataclass) can be stored as a product.
@serializable("Particle")
class Particle:
    def __init__(self, x=0.0, y=0.0, z=0.0):
        self.x, self.y, self.z = x, y, z

    def serialize(self, ar):
        self.x = ar.io(self.x)
        self.y = ar.io(self.y)
        self.z = ar.io(self.z)

    def __repr__(self):
        return f"Particle({self.x}, {self.y}, {self.z})"


def main():
    # -- deploy the service (normally: bedrock on the service nodes) ----
    fabric = Fabric()
    servers = [
        BedrockServer(fabric, default_hepnos_config(
            f"sm://node{i}/hepnos",
            num_providers=4, event_databases=4, product_databases=4,
            run_databases=2, subrun_databases=2,
        ))
        for i in range(2)
    ]
    print(f"deployed {len(servers)} HEPnOS server(s): "
          f"{[str(s.address) for s in servers]}")

    # -- connect (the analogue of DataStore::connect("config.json")).
    # The tenant id is how a brokered service meters this client; on an
    # unbrokered deployment like this one it is simply ignored.
    with hepnos.connect(servers=servers, tenant="quickstart") as session:
        # access a nested dataset
        ds = session.create_dataset("path/to/dataset")
        # access run 43 in the dataset
        run = ds.create_run(43)
        # create subrun 56 within this run
        subrun = run.create_subrun(56)
        # create event 25 within this subrun
        event = subrun.create_event(25)

        # store data (a vector of Particle)
        vp1 = [Particle(1.0, 2.0, 3.0), Particle(-1.0, 0.5, 9.0)]
        event.store(vp1, label="tracker")
        print(f"stored {len(vp1)} particles in event {event.triple()}")

        # load data
        vp2 = session["path/to/dataset"][43][56][25].load(
            vector_of(Particle), label="tracker"
        )
        print(f"loaded back: {vp2}")

        # iterate a subrun through a Prefetcher (paper section II-D): key
        # pages and the named products arrive in batches, not per event
        prefetcher = Prefetcher(session.datastore,
                                products=[(vector_of(Particle), "tracker")])
        for ev in prefetcher.events(subrun):
            print(f"prefetched event {ev.triple()}:",
                  ev.load(vector_of(Particle), label="tracker"))

        # iterate over the subruns in a run (ascending, one database)
        for n in (3, 99, 7):
            run.create_subrun(n)
        print("subruns in run 43:", [sr.number for sr in run])

        print("traffic:", f"{fabric.stats.rpc_count} RPCs,",
              f"{fabric.stats.total_bytes} bytes moved")


if __name__ == "__main__":
    main()
