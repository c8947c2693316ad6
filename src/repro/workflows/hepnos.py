"""The HEPnOS-based candidate-selection workflow (paper IV-B).

Two phases:

1. **Ingest** -- HDF2HEPnOS's DataLoader loads the files into a dataset
   (the only file-bounded step);
2. **Selection** -- an MPI application where every rank drives a
   ParallelEventProcessor; a lambda deserializes each event's slices,
   runs the CAFAna selection, and collects accepted IDs, which an MPI
   reduction sends to rank 0 (written to a single output file).

Timing follows the paper: per-rank ``MPI_Wtime`` stamps around the
processing loop, analyzed offline.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from repro.errors import ProductNotFound
from repro.hepnos import (
    DataLoader,
    DataStore,
    ParallelEventProcessor,
    PEPOptions,
    vector_of,
)
from repro.minimpi import SUM, Wtime, mpirun
from repro.monitor import tracing as _tracing
from repro.nova.cafana import Cut, nue_candidate_cut
from repro.serial import registered_type


@dataclass
class HEPnOSResult:
    """Aggregate outcome of the selection phase."""

    accepted_ids: set = field(default_factory=set)
    pep_stats: list = field(default_factory=list)
    wall_seconds: float = 0.0
    events_processed: int = 0
    slices_examined: int = 0
    ingest_stats: Optional[object] = None

    @property
    def throughput(self) -> float:
        """Slices per second between first start and last finish."""
        return self.slices_examined / self.wall_seconds if self.wall_seconds else 0.0


class HEPnOSWorkflow:
    """Runs ingest + parallel selection against a HEPnOS service."""

    def __init__(self, datastore: DataStore, dataset_path: str,
                 cut: Cut = nue_candidate_cut, label: str = "",
                 slice_class: str = "rec.slc",
                 output_path: Optional[str] = None,
                 pep_options: PEPOptions = PEPOptions()):
        self.datastore = datastore
        self.dataset_path = dataset_path
        self.cut = cut
        self.label = label
        self.slice_class = slice_class
        self.output_path = output_path
        #: processor tuning (batch sizes, readers, load-retry budget, lane)
        self.pep_options = pep_options

    # -- phase 1 -------------------------------------------------------------

    def ingest(self, paths: Sequence[str], num_ranks: int = 1):
        """Parallel ingest of ``paths`` into the dataset."""
        loader = DataLoader(self.datastore, self.dataset_path,
                            label=self.label)
        if num_ranks <= 1:
            with _tracing.span("workflow.ingest", parent=_tracing.NO_PARENT,
                               files=len(paths), ranks=1):
                return loader.ingest(paths)

        def rank_body(comm):
            # One root span per rank: rank bodies run on their own
            # threads, so each gets its own trace.
            with _tracing.span("workflow.ingest", parent=_tracing.NO_PARENT,
                               files=len(paths), rank=comm.rank):
                return loader.ingest(paths, comm=comm)

        results = mpirun(rank_body, num_ranks, timeout=600.0)
        return results[0]

    # -- phase 2 -------------------------------------------------------------

    def select(self, num_ranks: int) -> HEPnOSResult:
        """Run the MPI selection application with ``num_ranks`` ranks."""
        dataset = self.datastore[self.dataset_path]
        slice_cls = registered_type(self.slice_class)
        product_type = vector_of(slice_cls)
        result = HEPnOSResult()
        lock = threading.Lock()
        timestamps: list[tuple[float, float]] = []
        # The columnar fast path needs to know which columns to project:
        # a cut built from an opaque callable declares None, and then the
        # whole selection transparently falls back to per-event mode.
        use_columnar = (self.pep_options.columnar_loads
                        and self.cut.columns is not None)
        fields = (sorted(set(self.cut.columns) | {"slice_id"})
                  if use_columnar else None)
        pep_options = replace(self.pep_options, columnar_loads=use_columnar)

        def rank_body(comm):
            pep = ParallelEventProcessor(
                self.datastore,
                comm=comm if comm.size > 1 else None,
                options=pep_options,
                products=[(product_type, self.label)],
                columns=fields,
            )
            accepted: list[int] = []
            counters = {"events": 0, "slices": 0}
            passing = self.cut.passing

            def handle(event):
                slices = event.load(product_type, label=self.label)
                counters["events"] += 1
                counters["slices"] += len(slices)
                accepted.extend([s.slice_id for s in passing(slices)])

            def handle_batch(batch):
                missing = batch.missing_indices()
                if missing:
                    event = batch.items[missing[0]]
                    # Same semantics as the per-event path, where
                    # event.load raises on an absent product.
                    raise ProductNotFound(
                        f"no product label={self.label!r} "
                        f"type={product_type.name!r} in event "
                        f"{event.triple()}"
                    )
                table = batch.table
                mask = self.cut.mask(table)
                counters["events"] += len(batch)
                counters["slices"] += batch.block.rows
                accepted.extend(int(x) for x in table["slice_id"][mask])
                # Events the server could not project (no plan, or a
                # non-numeric field) evaluate object-by-object.
                for _event, slices in batch.fallback_items():
                    counters["slices"] += len(slices)
                    accepted.extend([s.slice_id for s in passing(slices)])

            t_start = Wtime()
            with _tracing.span("workflow.select", parent=_tracing.NO_PARENT,
                               rank=comm.rank, ranks=comm.size,
                               columnar=use_columnar):
                if use_columnar:
                    stats = pep.process_batches(dataset, handle_batch)
                else:
                    stats = pep.process(dataset, handle)
            t_end = Wtime()
            with lock:
                timestamps.append((t_start, t_end))
            all_ids = comm.reduce(sorted(accepted), op=SUM, root=0)
            totals = comm.reduce((counters["events"], counters["slices"]),
                                 op=lambda a, b: (a[0] + b[0], a[1] + b[1]),
                                 root=0)
            if comm.rank == 0:
                result.accepted_ids = set(all_ids)
                result.events_processed, result.slices_examined = totals
                if self.output_path:
                    self._write_output(sorted(result.accepted_ids))
            return stats

        result.pep_stats = mpirun(rank_body, num_ranks, timeout=600.0)
        # Paper metric: first rank's start to last rank's end.
        result.wall_seconds = (
            max(t1 for _, t1 in timestamps) - min(t0 for t0, _ in timestamps)
        )
        return result

    def _write_output(self, accepted_ids: list) -> None:
        directory = os.path.dirname(self.output_path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(self.output_path, "w") as f:
            for slice_id in accepted_ids:
                f.write(f"{slice_id}\n")

    # -- convenience --------------------------------------------------------

    def run(self, paths: Sequence[str], num_ranks: int,
            ingest_ranks: Optional[int] = None) -> HEPnOSResult:
        """Ingest then select; returns the selection result."""
        ingest_stats = self.ingest(paths, num_ranks=ingest_ranks or num_ranks)
        result = self.select(num_ranks)
        result.ingest_stats = ingest_stats
        return result
