"""Run both workflows on the same sample and verify identical results.

The paper (section IV): "The IDs of the accepted slices are accumulated
so that we can assure that the two applications have obtained the same
results."  This module is that assurance, packaged.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

from repro.hepnos import DataStore, PEPOptions
from repro.nova.cafana import Cut, nue_candidate_cut
from repro.workflows.hepnos import HEPnOSResult, HEPnOSWorkflow
from repro.workflows.traditional import (
    TraditionalResult,
    TraditionalWorkflow,
    write_file_list,
)


@dataclass
class ComparisonReport:
    """Side-by-side outcome of the two workflows."""

    traditional: TraditionalResult
    hepnos: HEPnOSResult
    identical: bool
    only_traditional: set
    only_hepnos: set

    @property
    def accepted_count(self) -> int:
        return len(self.traditional.accepted_ids)

    def summary(self) -> str:
        lines = [
            f"traditional: {self.traditional.total_slices} slices scanned, "
            f"{len(self.traditional.accepted_ids)} accepted, "
            f"{self.traditional.throughput:.0f} slices/s",
            f"hepnos:      {self.hepnos.slices_examined} slices scanned, "
            f"{len(self.hepnos.accepted_ids)} accepted, "
            f"{self.hepnos.throughput:.0f} slices/s",
            f"identical selections: {self.identical}",
        ]
        if not self.identical:
            lines.append(
                f"  only traditional: {sorted(self.only_traditional)[:10]}"
            )
            lines.append(f"  only hepnos: {sorted(self.only_hepnos)[:10]}")
        return "\n".join(lines)


def compare_workflows(
    datastore: DataStore,
    file_paths: Sequence[str],
    workdir: str,
    cut: Cut = nue_candidate_cut,
    num_processes: int = 4,
    num_ranks: int = 4,
    dataset_path: str = "nova/compare",
    files_per_block: int = 1,
    pep_options: PEPOptions = PEPOptions(input_batch_size=256,
                                         dispatch_batch_size=16),
) -> ComparisonReport:
    """Execute both workflows over ``file_paths`` and diff their selections."""
    os.makedirs(workdir, exist_ok=True)
    file_list = os.path.join(workdir, "files.txt")
    write_file_list(file_list, file_paths)

    traditional = TraditionalWorkflow(
        file_list, cut=cut, output_dir=os.path.join(workdir, "traditional-out")
    ).run(num_processes=num_processes, files_per_block=files_per_block)

    workflow = HEPnOSWorkflow(
        datastore, dataset_path, cut=cut,
        pep_options=pep_options,
        output_path=os.path.join(workdir, "hepnos-out", "selected.txt"),
    )
    hepnos = workflow.run(file_paths, num_ranks=num_ranks)

    t_ids = traditional.accepted_ids
    h_ids = hepnos.accepted_ids
    return ComparisonReport(
        traditional=traditional,
        hepnos=hepnos,
        identical=t_ids == h_ids,
        only_traditional=t_ids - h_ids,
        only_hepnos=h_ids - t_ids,
    )
