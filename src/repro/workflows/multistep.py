"""Multi-step workflows: eliminating "copy forward" (paper sections I, VI).

Grid workflows chain steps through files: step *n*'s output file is
step *n+1*'s input, so data needed only by a later step must be *copied
forward* through every intermediate file -- superfluous I/O the paper
calls out in its introduction.  With HEPnOS, each step writes its new
products next to the originals and any later step reads exactly what it
needs.

This module implements both paradigms for an N-step analysis chain:

- :class:`HEPnOSPipeline` -- steps are product transformations; step
  *k* reads any earlier step's products directly from the store;
- :class:`FileBasedPipeline` -- each step stands for reading an input
  file set and writing an output file set; every column a later step
  needs must be carried through (the copy-forward set).  No file is
  written: the file I/O is modelled from the arrays' bytes.

The measurable claim: file-based I/O grows with (steps x carried data)
while HEPnOS writes each product once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import HEPnOSError
from repro.hepnos import ParallelEventProcessor, PEPOptions, WriteBatch
from repro.hepnos.product import product_type_name


@dataclass
class StepSpec:
    """One analysis step.

    ``fn(event_products) -> new_product`` where ``event_products`` maps
    the requested input spec names to loaded products.  ``reads`` lists
    (product_type, label) pairs the step consumes; the output is stored
    under (``out_type`` implied by the value, ``out_label``).
    """

    name: str
    fn: Callable[[dict], object]
    reads: Sequence[tuple] = ()
    out_label: str = ""


@dataclass
class StepReport:
    name: str
    events: int = 0
    products_written: int = 0
    bytes_written: int = 0


@dataclass
class PipelineReport:
    steps: list = field(default_factory=list)

    @property
    def total_bytes_written(self) -> int:
        return sum(s.bytes_written for s in self.steps)

    @property
    def total_products(self) -> int:
        return sum(s.products_written for s in self.steps)


class HEPnOSPipeline:
    """Run an N-step chain against a HEPnOS dataset, event-granular."""

    def __init__(self, datastore, dataset_path: str,
                 input_batch_size: int = 256):
        self.datastore = datastore
        self.dataset_path = dataset_path
        self.input_batch_size = input_batch_size

    def run_step(self, step: StepSpec, comm=None) -> StepReport:
        """Execute one step over every event (optionally MPI-parallel)."""
        dataset = self.datastore[self.dataset_path]
        report = StepReport(step.name)
        pep = ParallelEventProcessor(
            self.datastore,
            comm=comm if comm is not None and comm.size > 1 else None,
            options=PEPOptions(input_batch_size=self.input_batch_size),
            products=list(step.reads),
        )
        batch = WriteBatch(self.datastore, flush_threshold=1024)

        def handle(event):
            report.events += 1
            inputs = {}
            for ptype, label in step.reads:
                inputs[(product_type_name(ptype), label)] = event.load(
                    ptype, label=label
                )
            output = step.fn(inputs)
            if output is None:
                return
            from repro.serial import dumps

            event.store(output, label=step.out_label, batch=batch)
            report.products_written += 1
            report.bytes_written += len(dumps(output))

        pep.process(dataset, handle)
        batch.close()
        if comm is not None and comm.size > 1:
            # Step boundary: every rank's batched writes must be flushed
            # and visible before any rank starts prefetching the next
            # step's inputs, or a fast rank reads a product that a slow
            # rank has not stored yet.
            comm.barrier()
        return report

    def run(self, steps: Sequence[StepSpec], comm=None) -> PipelineReport:
        """Execute the chain; later steps see earlier steps' products."""
        if not steps:
            raise HEPnOSError("pipeline has no steps")
        pipeline_report = PipelineReport()
        for step in steps:
            pipeline_report.steps.append(self.run_step(step, comm=comm))
        return pipeline_report


# -- the file-based counterpart -----------------------------------------------


@dataclass
class FileStepReport(StepReport):
    bytes_copied_forward: int = 0
    files_written: int = 0


class FileBasedPipeline:
    """The grid paradigm: each step reads files, writes files.

    Columns a later step needs must travel through every intermediate
    file.  The data are in-memory column dictionaries and no file is
    written: each step's output file is modelled as the bytes of the
    arrays it would hold, so the ``carry`` computation makes the
    copy-forward cost explicit and measurable.
    """

    def run(self, input_tables: dict, steps: Sequence[StepSpec],
            needed_by_step: dict) -> tuple[dict, PipelineReport]:
        """Run the chain over ``input_tables`` (name -> per-event dict).

        ``needed_by_step`` maps step index -> set of column names that
        step reads; every column needed by step j > i must be written by
        step i even if step i does not use it (the copy-forward).
        Returns (final tables, report).
        """
        import numpy as np

        if not steps:
            raise HEPnOSError("pipeline has no steps")
        report = PipelineReport()
        current = dict(input_tables)
        for i, step in enumerate(steps):
            step_report = FileStepReport(step.name)
            # Which existing columns must survive past this step?
            carry = set()
            for j in range(i + 1, len(steps)):
                carry |= set(needed_by_step.get(j, ()))
            carry &= set(current)
            # Run the step: produce its new column.
            inputs = {
                name: current[name]
                for name in needed_by_step.get(i, ())
                if name in current
            }
            output = step.fn(inputs)
            next_tables = {}
            for name in carry:
                next_tables[name] = current[name]
                nbytes = int(np.asarray(current[name]).nbytes)
                step_report.bytes_copied_forward += nbytes
                step_report.bytes_written += nbytes
            if output is not None:
                next_tables[step.out_label] = output
                nbytes = int(np.asarray(output).nbytes)
                step_report.bytes_written += nbytes
                step_report.products_written += 1
            step_report.files_written = 1
            step_report.events = len(next(iter(current.values()), []))
            current = next_tables
            report.steps.append(step_report)
        return current, report
