"""Workflow tests: traditional, HEPnOS-based, and their equivalence."""

import os

import pytest

from repro.errors import ReproError
from repro.hepnos import PEPOptions
from repro.nova import generate_file_set
from repro.workflows import (
    HEPnOSWorkflow,
    TraditionalWorkflow,
    compare_workflows,
    read_file_list,
    write_file_list,
)


@pytest.fixture(scope="module")
def file_set(tmp_path_factory):
    directory = tmp_path_factory.mktemp("nova-files")
    # Boost the signal fraction so selections are non-trivial at test scale.
    from repro.nova import GeneratorConfig

    return generate_file_set(
        str(directory), num_files=6, mean_events_per_file=12,
        config=GeneratorConfig(signal_fraction=0.1, events_per_subrun=16,
                               subruns_per_run=4),
    )


class TestFileList:
    def test_roundtrip(self, tmp_path, file_set):
        path = str(tmp_path / "files.txt")
        write_file_list(path, file_set.paths)
        assert read_file_list(path) == file_set.paths

    def test_line_ranges(self, tmp_path, file_set):
        """CAFAna jobs take start/end line numbers into the list."""
        path = str(tmp_path / "files.txt")
        write_file_list(path, file_set.paths)
        assert read_file_list(path, 1, 3) == file_set.paths[1:3]


class TestTraditionalWorkflow:
    def test_processes_every_file_once(self, tmp_path, file_set):
        path = str(tmp_path / "files.txt")
        write_file_list(path, file_set.paths)
        result = TraditionalWorkflow(path).run(num_processes=3)
        assert sum(r.files_processed for r in result.reports) == file_set.num_files
        assert result.total_events == file_set.total_events
        assert result.total_slices == file_set.total_slices

    def test_selection_nonempty_and_deterministic(self, tmp_path, file_set):
        path = str(tmp_path / "files.txt")
        write_file_list(path, file_set.paths)
        r1 = TraditionalWorkflow(path).run(num_processes=2)
        r2 = TraditionalWorkflow(path).run(num_processes=4)
        assert r1.accepted_ids
        assert r1.accepted_ids == r2.accepted_ids  # parallelism-invariant

    def test_single_process(self, tmp_path, file_set):
        path = str(tmp_path / "files.txt")
        write_file_list(path, file_set.paths)
        result = TraditionalWorkflow(path).run(num_processes=1)
        assert result.reports[0].files_processed == file_set.num_files

    def test_more_processes_than_files(self, tmp_path, file_set):
        """Paper: with cores > files, the extra processes idle."""
        path = str(tmp_path / "files.txt")
        write_file_list(path, file_set.paths)
        result = TraditionalWorkflow(path).run(num_processes=10)
        busy = [r for r in result.reports if r.files_processed > 0]
        assert len(busy) <= file_set.num_files

    def test_blocks(self, tmp_path, file_set):
        path = str(tmp_path / "files.txt")
        write_file_list(path, file_set.paths)
        result = TraditionalWorkflow(path).run(num_processes=2,
                                               files_per_block=3)
        assert sum(r.files_processed for r in result.reports) == file_set.num_files

    def test_output_files(self, tmp_path, file_set):
        list_path = str(tmp_path / "files.txt")
        out_dir = str(tmp_path / "out")
        write_file_list(list_path, file_set.paths)
        result = TraditionalWorkflow(list_path, output_dir=out_dir).run(2)
        written = sorted(os.listdir(out_dir))
        assert "selected-0000.txt" in written
        assert "timing-0001.txt" in written
        collected = set()
        for name in written:
            if name.startswith("selected-"):
                with open(os.path.join(out_dir, name)) as f:
                    collected.update(int(line) for line in f if line.strip())
        assert collected == result.accepted_ids

    def test_invalid_parameters(self, tmp_path, file_set):
        path = str(tmp_path / "files.txt")
        write_file_list(path, file_set.paths)
        with pytest.raises(ReproError):
            TraditionalWorkflow(path).run(num_processes=0)
        with pytest.raises(ReproError):
            TraditionalWorkflow(path).run(num_processes=1, files_per_block=0)

    def test_throughput_metric(self, tmp_path, file_set):
        path = str(tmp_path / "files.txt")
        write_file_list(path, file_set.paths)
        result = TraditionalWorkflow(path).run(num_processes=2)
        assert result.throughput > 0
        assert result.imbalance >= 1.0


class TestHEPnOSWorkflow:
    def test_ingest_then_select(self, datastore, file_set, tmp_path):
        workflow = HEPnOSWorkflow(
            datastore, "wf/hepnos",
            pep_options=PEPOptions(input_batch_size=64,
                                   dispatch_batch_size=8),
            output_path=str(tmp_path / "out" / "selected.txt"),
        )
        result = workflow.run(file_set.paths, num_ranks=4)
        assert result.events_processed == file_set.total_events
        assert result.slices_examined == file_set.total_slices
        assert result.accepted_ids
        assert result.ingest_stats.files == file_set.num_files
        with open(tmp_path / "out" / "selected.txt") as f:
            written = {int(line) for line in f if line.strip()}
        assert written == result.accepted_ids

    def test_single_rank(self, datastore, file_set):
        workflow = HEPnOSWorkflow(
            datastore, "wf/single",
            pep_options=PEPOptions(input_batch_size=64))
        result = workflow.run(file_set.paths, num_ranks=1)
        assert result.events_processed == file_set.total_events

    def test_rank_count_invariance(self, datastore, file_set):
        options = PEPOptions(input_batch_size=64, dispatch_batch_size=8)
        w2 = HEPnOSWorkflow(datastore, "wf/inv", pep_options=options)
        r2 = w2.run(file_set.paths, num_ranks=2)
        w4 = HEPnOSWorkflow(datastore, "wf/inv", pep_options=options)
        r4 = w4.select(num_ranks=4)  # same already-ingested dataset
        assert r2.accepted_ids == r4.accepted_ids


class TestEquivalence:
    def test_both_workflows_select_identical_slices(self, datastore, file_set,
                                                    tmp_path):
        """The paper's headline correctness claim (experiment E-corr)."""
        report = compare_workflows(
            datastore, file_set.paths, workdir=str(tmp_path / "cmp"),
            num_processes=3, num_ranks=4,
        )
        assert report.identical, report.summary()
        assert report.accepted_count > 0
        assert report.traditional.total_slices == report.hepnos.slices_examined

    def test_summary_renders(self, datastore, file_set, tmp_path):
        report = compare_workflows(
            datastore, file_set.paths[:2], workdir=str(tmp_path / "cmp2"),
            num_processes=2, num_ranks=2, dataset_path="nova/compare2",
        )
        text = report.summary()
        assert "identical selections: True" in text
