#!/usr/bin/env python
"""Run both candidate-selection workflows and verify identical results.

This is the paper's correctness check (section IV): the traditional
file-based workflow and the HEPnOS workflow must accept exactly the
same slice IDs.  It also prints the in-process throughput of each and
the traditional workflow's load-imbalance factor.

Run:  python examples/traditional_vs_hepnos.py
"""

import tempfile

from repro.bedrock import BedrockServer, default_hepnos_config
from repro.hepnos import DataStore
from repro.mercury import Fabric
from repro.nova import GeneratorConfig, generate_file_set
from repro.workflows import compare_workflows


def main(workdir):
    sample = generate_file_set(
        f"{workdir}/files", num_files=10, mean_events_per_file=32,
        config=GeneratorConfig(signal_fraction=0.05, events_per_subrun=32,
                               subruns_per_run=8),
        size_spread=0.5,  # pronounced file-size imbalance
    )
    print(f"sample: {sample.num_files} files, {sample.total_events} events, "
          f"{sample.total_slices} slices")
    print(f"events per file: min={min(sample.events_per_file)} "
          f"max={max(sample.events_per_file)}")

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

    report = compare_workflows(
        datastore, sample.paths, workdir=workdir,
        num_processes=4, num_ranks=4,
    )
    print()
    print(report.summary())
    print(f"\ntraditional per-process imbalance (max/mean busy time): "
          f"{report.traditional.imbalance:.2f}")
    reader_stats = [s for s in report.hepnos.pep_stats if s.role == "reader"]
    worker_events = [s.events_processed for s in report.hepnos.pep_stats
                     if s.role == "worker"]
    print(f"hepnos: {len(reader_stats)} reader rank(s), worker events "
          f"{worker_events} (dispatch batches balance the load)")

    assert report.identical, "selection mismatch!"
    print("\nOK: both workflows selected the identical slice set.")
    fabric.runtime.shutdown()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="wf-compare-") as workdir:
        main(workdir)
