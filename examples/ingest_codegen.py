#!/usr/bin/env python
"""HDF2HEPnOS: schema discovery and code generation (paper section IV-B).

Analyzes the structure of a CAF-like columnar file, deduces the stored
classes and their member variables, prints the generated product-class
source (the analogue of the generated C++), then ingests the file and
reads an event's products back.

Run:  python examples/ingest_codegen.py
"""

import tempfile

from repro.bedrock import BedrockServer, default_hepnos_config
from repro.hdf5lite import H5LiteFile
from repro.hepnos import DataLoader, DataStore, discover_schema, generate_class_code, vector_of
from repro.mercury import Fabric
from repro.nova import BEAM, NovaGenerator, write_nova_file
from repro.serial import registered_type


def main(workdir):
    path = f"{workdir}/nova-00000.h5l"
    generator = NovaGenerator(BEAM)
    triples = [(1000, 0, e) for e in range(16)]
    nslices = write_nova_file(path, generator, triples)
    print(f"wrote {path}: {len(triples)} events, {nslices} slices")

    # -- 1. analyze the file structure -----------------------------------
    with H5LiteFile.open(path) as f:
        schemas = discover_schema(f)
    print(f"\ndiscovered {len(schemas)} class tables:")
    for schema in schemas:
        columns = ", ".join(name for name, _ in schema.value_columns[:6])
        more = "" if len(schema.value_columns) <= 6 else ", ..."
        print(f"  {schema.class_name:<10} ({schema.length} rows; "
              f"members: {columns}{more})")

    # -- 2. generate the product class ------------------------------------
    slc_schema = next(s for s in schemas if s.class_name == "rec.slc")
    print("\ngenerated class source for rec.slc:")
    print("-" * 60)
    print(generate_class_code(slc_schema))
    print("-" * 60)

    # -- 3. ingest ----------------------------------------------------------
    fabric = Fabric()
    server = BedrockServer(fabric, default_hepnos_config(
        "sm://node0/hepnos", num_providers=4,
        event_databases=4, product_databases=4,
        run_databases=2, subrun_databases=2,
    ))
    datastore = DataStore.connect(fabric, [server])
    loader = DataLoader(datastore, "nova/from-hdf5")
    stats = loader.ingest_file(path)
    print(f"ingested: {stats.events_created} events, "
          f"{stats.products_stored} products from {stats.tables} tables")

    # -- 4. read back through the HEPnOS hierarchy ----------------------------
    slc_cls = registered_type("rec.slc")
    event = datastore["nova/from-hdf5"][1000][0][5]
    slices = event.load(vector_of(slc_cls))
    print(f"\nevent {event.triple()} holds {len(slices)} slices; first:")
    first = slices[0]
    for field in ("slice_id", "nhit", "cal_e", "cvn_e", "dist_to_edge"):
        print(f"  {field} = {getattr(first, field)}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="hdf2hepnos-") as workdir:
        main(workdir)
