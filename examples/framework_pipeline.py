#!/usr/bin/env python
"""An art-style framework pipeline over HEPnOS (paper section VI).

The paper's conclusion: experiment *frameworks* must adapt their I/O
interfaces to benefit from a distributed data store.  This example
shows what that looks like: the physics modules below are written once
and know nothing about storage; swapping ``FileSource`` for
``HEPnOSSource`` (and adding ``HEPnOSSink``) is the entire migration.
The example checks that claim: it runs the same modules over
``FileSource`` on the same files and exits non-zero unless they keep
the same events and fill the same spectrum.

Pipeline: NueCandidateFilter -> CalibProducer -> SpectrumAnalyzer.

The leading filter is a :class:`CutFilter` over the declared
``nue_candidate_cut``, and the source runs in columnar mode -- so the
selection is evaluated *vectorized* over server-projected column
arrays (one ``scan_columns`` RPC per database per batch), and only
surviving events ever materialize objects for the downstream modules.

Run:  python examples/framework_pipeline.py
"""

import tempfile

import numpy as np

from repro.bedrock import BedrockServer, default_hepnos_config
from repro.framework import (
    Analyzer,
    CutFilter,
    FileSource,
    HEPnOSSink,
    HEPnOSSource,
    Pipeline,
    Producer,
)
from repro.hepnos import DataLoader, DataStore, vector_of
from repro.mercury import Fabric
from repro.minimpi import mpirun
from repro.nova import (
    GeneratorConfig,
    SliceData,
    generate_file_set,
    nue_candidate_cut,
)
from repro.serial import registered_type, serializable


@serializable("demo.CalibSummary")
class CalibSummary:
    def __init__(self, total_e=0.0, n_candidates=0):
        self.total_e = total_e
        self.n_candidates = n_candidates

    def serialize(self, ar):
        self.total_e = ar.io(self.total_e)
        self.n_candidates = ar.io(self.n_candidates)


def build_modules(slc_cls):
    class CalibProducer(Producer):
        def produce(self, event):
            slices = event.get(vector_of(slc_cls))
            candidates = [s for s in slices if nue_candidate_cut(s)]
            event.put(CalibSummary(
                total_e=sum(s.cal_e for s in slices) * 1.02,
                n_candidates=len(candidates),
            ), label="calib")

    class SpectrumAnalyzer(Analyzer):
        def __init__(self):
            super().__init__()
            self.edges = np.linspace(0, 20, 21)
            self.counts = np.zeros(20)
            import threading

            self.lock = threading.Lock()

        def analyze(self, event):
            total = event.get(CalibSummary, label="calib").total_e
            hist, _ = np.histogram([total], bins=self.edges)
            with self.lock:
                self.counts += hist

    # The filter leads the path so the columnar source can vectorize it:
    # the cut declares its columns, so batches are prefiltered from
    # projected arrays and only candidates reach the producer.
    nue_filter = CutFilter(nue_candidate_cut, vector_of(slc_cls),
                           module_label="NueCandidateFilter")
    return nue_filter, CalibProducer(), SpectrumAnalyzer()


def main(workdir):
    sample = generate_file_set(
        f"{workdir}/files", num_files=6, mean_events_per_file=32,
        config=GeneratorConfig(signal_fraction=0.08, events_per_subrun=32,
                               subruns_per_run=8),
    )
    fabric = Fabric(threaded=True)
    servers = [BedrockServer(fabric, default_hepnos_config(
        f"sm://node{i}/hepnos", num_providers=4, event_databases=4,
        product_databases=4, run_databases=2, subrun_databases=2,
    )) for i in range(2)]
    fabric.runtime.start()
    datastore = DataStore.connect(fabric, servers)
    DataLoader(datastore, "fw/run1").ingest(sample.paths)
    slc = registered_type("rec.slc")

    nue_filter, producer, spectrum = build_modules(slc)

    def rank_body(comm):
        # Every rank persists what it processes (batched independently).
        pipeline = Pipeline(
            [nue_filter, producer, spectrum],
            sink=HEPnOSSink(datastore, "fw/run1"),
        )
        source = HEPnOSSource(
            datastore, "fw/run1", products=[(vector_of(slc), "")],
            input_batch_size=64, dispatch_batch_size=8,
        )
        return pipeline.run(source, comm=comm)

    reports = mpirun(rank_body, 4, timeout=300.0)
    total_read = sum(r.events_read for r in reports)
    total_kept = sum(r.events_completed for r in reports)
    print(f"processed {total_read} events over 4 ranks; "
          f"{total_kept} had nue candidates\n")
    print("per-module report (rank 3):")
    print(reports[3].summary())

    print("\ncalibrated-energy spectrum of candidate events:")
    peak = spectrum.counts.max() or 1
    for left, count in zip(spectrum.edges[:-1], spectrum.counts):
        if count:
            print(f"  {left:5.1f}-{left + 1:5.1f} GeV "
                  f"{'#' * int(30 * count / peak)} {int(count)}")

    # The migration claim, checked: the same three modules, run
    # sequentially over the files themselves (the grid paradigm), keep
    # the same events and fill the same spectrum.
    file_modules = build_modules(SliceData)
    file_report = Pipeline(list(file_modules)).run(FileSource(sample.paths))
    if (file_report.events_completed != total_kept
            or not np.array_equal(file_modules[2].counts, spectrum.counts)):
        raise SystemExit(
            f"FileSource kept {file_report.events_completed} events, "
            f"HEPnOSSource {total_kept}, or their spectra differ")
    print(f"\nFileSource over the same files: {file_report.events_read} "
          f"events read, {file_report.events_completed} kept, same spectrum")

    # The producer's summaries are persisted (for surviving events):
    # load one back through the plain HEPnOS API.
    event = next(
        ev for ev in datastore["fw/run1"].events()
        if ev.has_product(CalibSummary, label="calib")
    )
    summary = event.load(CalibSummary, label="calib")
    print(f"\npersisted product on event {event.triple()}: "
          f"total_e={summary.total_e:.2f}, "
          f"candidates={summary.n_candidates}")
    fabric.runtime.shutdown()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="framework-") as workdir:
        main(workdir)
