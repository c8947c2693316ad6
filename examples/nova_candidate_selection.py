#!/usr/bin/env python
"""NOvA candidate selection through HEPnOS (the paper's application).

End to end:

1. generate a synthetic NOvA-like file sample (beam profile);
2. ingest it with HDF2HEPnOS's DataLoader (parallel over MPI ranks);
3. run the selection as an MPI application: every rank drives a
   ParallelEventProcessor, a lambda applies the CAFAna nue candidate
   cut to each event's slices, and accepted slice IDs reduce to rank 0
   -- with a distributed tracer installed, so every store/load/PEP
   event is followed across the Mercury RPC boundary;
4. report the selection, an energy spectrum of the candidates, and the
   captured trace (Chrome trace-event JSON + critical path).

Run:  python examples/nova_candidate_selection.py
The work directory (files, selected.txt, the trace) is removed at exit;
for a trace to keep: repro-trace nova --out nova-trace.json
"""

import tempfile

import numpy as np

from repro.bedrock import BedrockServer, default_hepnos_config
from repro.hepnos import DataStore, PEPOptions
from repro.mercury import Fabric
from repro.monitor.tracing import trace_session
from repro.nova import GeneratorConfig, Spectrum, Var, generate_file_set
from repro.workflows import HEPnOSWorkflow


def main(workdir):
    # -- the data sample -------------------------------------------------
    config = GeneratorConfig(signal_fraction=0.05, events_per_subrun=32,
                             subruns_per_run=8)
    sample = generate_file_set(f"{workdir}/files", num_files=8,
                               mean_events_per_file=48, config=config)
    print(f"sample: {sample.num_files} files, {sample.total_events} events, "
          f"{sample.total_slices} slices")

    # -- the service --------------------------------------------------------
    fabric = Fabric(threaded=True)
    servers = [
        BedrockServer(fabric, default_hepnos_config(
            f"sm://node{i}/hepnos", num_providers=4,
            event_databases=4, product_databases=4,
            run_databases=2, subrun_databases=2,
        ))
        for i in range(2)
    ]
    fabric.runtime.start()
    datastore = DataStore.connect(fabric, servers)

    # -- ingest + selection ----------------------------------------------------
    workflow = HEPnOSWorkflow(
        datastore, "nova/prod5",
        pep_options=PEPOptions(input_batch_size=128, dispatch_batch_size=16),
        output_path=f"{workdir}/selected.txt",
    )
    print("ingesting...")
    ingest = workflow.ingest(sample.paths, num_ranks=2)
    print(f"  {ingest.files} files -> {ingest.events_created} events, "
          f"{ingest.products_stored} products")

    print("selecting with 4 MPI ranks (traced)...")
    with trace_session() as tracer:
        result = workflow.select(num_ranks=4)
    print(f"  examined {result.slices_examined} slices in "
          f"{result.events_processed} events")
    print(f"  accepted {len(result.accepted_ids)} nue candidates "
          f"({len(result.accepted_ids) / result.slices_examined:.2%})")
    print(f"  throughput: {result.throughput:,.0f} slices/s "
          "(in-process; scaling numbers come from repro.perf)")
    for stats in result.pep_stats:
        print(f"    rank {stats.rank}: role={stats.role:<10} "
              f"events={stats.events_processed:<5} "
              f"batches={stats.batches_received}")

    # -- a CAFAna-style spectrum of the candidates --------------------------------
    from repro.hepnos import ParallelEventProcessor, vector_of
    from repro.serial import registered_type

    slc = registered_type("rec.slc")
    spectrum = Spectrum(Var("cal_e"), bins=np.linspace(0.0, 5.0, 21))
    pep = ParallelEventProcessor(datastore,
                                 options=PEPOptions(input_batch_size=128),
                                 products=[(vector_of(slc), "")])
    pep.process(datastore["nova/prod5"],
                lambda ev: spectrum.fill_slices(ev.load(vector_of(slc))))
    print("\ncandidate calorimetric-energy spectrum (GeV):")
    peak = spectrum.counts.max() or 1.0
    for left, count in zip(spectrum.edges[:-1], spectrum.counts):
        bar = "#" * int(40 * count / peak)
        print(f"  {left:4.2f}-{left + 0.25:4.2f} {int(count):6d} {bar}")

    # -- the captured trace -------------------------------------------------
    trace_path = f"{workdir}/selection-trace.json"
    tracer.collector.save(trace_path)
    spans = tracer.collector.spans
    server_side = [s for s in spans if s.name.startswith("yokan.provider.")]
    cross_wire = [s for s in server_side if s.parent_id is not None]
    print(f"\ntrace: {len(spans)} spans across "
          f"{len(tracer.collector.traces())} traces -> {trace_path}")
    print(f"  {len(cross_wire)}/{len(server_side)} server-side Yokan spans "
          "parented across the RPC boundary")
    print("  hottest spans:")
    summary = sorted(tracer.collector.summary().items(),
                     key=lambda kv: -kv[1]["total_seconds"])
    for name, entry in summary[:5]:
        print(f"    {name:<28} x{entry['count']:<5} "
              f"{entry['total_seconds'] * 1e3:7.1f}ms total")
    print("  for a trace to keep: repro-trace nova --out nova-trace.json")

    fabric.runtime.shutdown()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="nova-selection-") as workdir:
        main(workdir)
