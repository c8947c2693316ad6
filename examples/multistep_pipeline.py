#!/usr/bin/env python
"""Multi-step analysis without copy-forward (paper sections I and VI).

A 3-step chain over ingested NOvA-like data:

1. *calibrate*  -- derive calibrated energies from each event's slices;
2. *cluster*    -- summarize calibrated slices into one cluster record;
3. *summarize*  -- combine the cluster with the ORIGINAL slices.

Step 3 reading step-1 inputs directly is exactly what the file paradigm
cannot do without copying data forward through every intermediate file.
The example runs the same chain both ways and prints the I/O ledger.

Run:  python examples/multistep_pipeline.py
"""

import tempfile

import numpy as np

from repro.bedrock import BedrockServer, default_hepnos_config
from repro.hepnos import DataStore
from repro.mercury import Fabric
from repro.nova import GeneratorConfig, NovaGenerator, write_nova_file
from repro.serial import registered_type, serializable
from repro.hepnos import DataLoader, vector_of
from repro.workflows import FileBasedPipeline, HEPnOSPipeline, StepSpec


@serializable("demo.CalibSlice")
class CalibSlice:
    def __init__(self, energy=0.0):
        self.energy = energy

    def serialize(self, ar):
        self.energy = ar.io(self.energy)


@serializable("demo.EventSummary")
class EventSummary:
    def __init__(self, total_energy=0.0, nslices=0, max_nhit=0):
        self.total_energy = total_energy
        self.nslices = nslices
        self.max_nhit = max_nhit

    def serialize(self, ar):
        self.total_energy = ar.io(self.total_energy)
        self.nslices = ar.io(self.nslices)
        self.max_nhit = ar.io(self.max_nhit)


def main(workdir):
    generator = NovaGenerator(GeneratorConfig(events_per_subrun=32))
    path = f"{workdir}/input.h5l"
    write_nova_file(path, generator, [(1000, 0, e) for e in range(64)])

    fabric = Fabric()
    server = BedrockServer(fabric, default_hepnos_config(
        "sm://node0/hepnos", num_providers=4, event_databases=4,
        product_databases=4, run_databases=2, subrun_databases=2,
    ))
    datastore = DataStore.connect(fabric, [server])
    DataLoader(datastore, "nova/msdemo").ingest_file(path)
    slc = registered_type("rec.slc")

    # -- HEPnOS chain ------------------------------------------------------
    def calibrate(inputs):
        slices = inputs[("vector<rec.slc>", "")]
        return [CalibSlice(s.cal_e * 1.02) for s in slices]

    def cluster(inputs):
        calib = inputs[("vector<demo.CalibSlice>", "calib")]
        return EventSummary(sum(c.energy for c in calib), len(calib), 0)

    def summarize(inputs):
        summary = inputs[("demo.EventSummary", "cluster")]
        raw = inputs[("vector<rec.slc>", "")]  # original step-0 data!
        summary.max_nhit = max(s.nhit for s in raw)
        return summary

    pipeline = HEPnOSPipeline(datastore, "nova/msdemo", input_batch_size=32)
    report = pipeline.run([
        StepSpec("calibrate", calibrate, reads=[(vector_of(slc), "")],
                 out_label="calib"),
        StepSpec("cluster", cluster,
                 reads=[(vector_of(CalibSlice), "calib")],
                 out_label="cluster"),
        StepSpec("summarize", summarize,
                 reads=[(EventSummary, "cluster"), (vector_of(slc), "")],
                 out_label="summary"),
    ])
    print("HEPnOS chain:")
    for step in report.steps:
        print(f"  {step.name:<10} events={step.events:<4} "
              f"new products={step.products_written:<4} "
              f"bytes written={step.bytes_written}")
    print(f"  total bytes written: {report.total_bytes_written} "
          "(every byte is NEW data; step 3 read raw slices in place)")

    # -- file-based chain (its file I/O modelled from the arrays' bytes) -----
    n = 64
    tables = {"slices": np.random.default_rng(0).random((n, 40))}
    fb_steps = [
        StepSpec("calibrate", lambda inp: inp["slices"] * 1.02,
                 out_label="calib"),
        StepSpec("cluster", lambda inp: inp["calib"].sum(axis=1),
                 out_label="cluster"),
        StepSpec("summarize",
                 lambda inp: inp["cluster"] + inp["slices"].max(axis=1),
                 out_label="summary"),
    ]
    needs = {0: {"slices"}, 1: {"calib"}, 2: {"cluster", "slices"}}
    _, fb_report = FileBasedPipeline().run(tables, fb_steps, needs)
    print("\nfile-based chain:")
    copied_total = 0
    for step in fb_report.steps:
        copied = getattr(step, "bytes_copied_forward", 0)
        copied_total += copied
        print(f"  {step.name:<10} bytes written={step.bytes_written:<8} "
              f"of which copied forward={copied}")
    print(f"  total bytes written: {fb_report.total_bytes_written}, "
          f"copy-forward overhead: {copied_total} "
          f"({copied_total / fb_report.total_bytes_written:.0%})")

    event = datastore["nova/msdemo"][1000][0][7]
    summary = event.load(EventSummary, label="summary")
    print(f"\nevent (1000,0,7) summary: total_energy="
          f"{summary.total_energy:.2f} GeV over {summary.nslices} slices, "
          f"max nhit {summary.max_nhit}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="multistep-") as workdir:
        main(workdir)
