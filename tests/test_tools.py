"""Tests for the operator tooling and CLI."""

import pytest

from repro.hepnos import WriteBatch
from repro.nova import BEAM, NovaGenerator, write_nova_file
from repro.tools import file_structure, service_stat, tree
from repro.tools.cli import build_parser, main


@pytest.fixture()
def populated(datastore):
    ds = datastore.create_dataset("tools/demo")
    with WriteBatch(datastore) as batch:
        for r in (1, 2):
            run = ds.create_run(r, batch=batch)
            for s in range(3):
                subrun = run.create_subrun(s, batch=batch)
                for e in range(5):
                    subrun.create_event(e, batch=batch)
    return ds


class TestTree:
    def test_renders_hierarchy(self, datastore, populated):
        text = tree(datastore, "tools/demo")
        assert "demo/" in text
        assert "run 1 (3 subruns)" in text
        assert "subrun 0 (5 events)" in text

    def test_root_listing(self, datastore, populated):
        text = tree(datastore)
        assert "tools" in text

    def test_elides_large_stores(self, datastore):
        ds = datastore.create_dataset("tools/big")
        with WriteBatch(datastore) as batch:
            for r in range(20):
                ds.create_run(r, batch=batch)
        text = tree(datastore, "tools/big", max_runs=5)
        assert "... 15 more runs" in text

    def test_show_events(self, datastore, populated):
        text = tree(datastore, "tools/demo", show_events=True)
        assert "0, 1, 2" in text

    def test_empty_store(self, datastore):
        assert tree(datastore) == "(empty store)"


class TestServiceStat:
    def test_counts_keys(self, datastore, populated):
        text = service_stat(datastore)
        assert "TOTAL" in text
        # 2 runs + 6 subruns + 30 events somewhere in the totals.
        assert "events" in text and "products" in text


class TestFileStructure:
    def test_structure_output(self, tmp_path):
        path = str(tmp_path / "f.h5l")
        write_nova_file(path, NovaGenerator(BEAM), [(1000, 0, 0)],
                        compression="zlib")
        text = file_structure(path)
        assert "slc/" in text
        assert "[class: rec.slc]" in text
        assert "(zlib)" in text
        assert "cal_e" in text


class TestCLI:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["generate", "/tmp/x", "--files", "3"])
        assert args.files == 3

    def test_generate_and_inspect(self, tmp_path, capsys):
        directory = str(tmp_path / "cli-files")
        assert main(["generate", directory, "--files", "2",
                     "--events-per-file", "8"]) == 0
        out = capsys.readouterr().out
        assert "wrote 2 files" in out
        import glob

        files = sorted(glob.glob(f"{directory}/*.h5l"))
        assert main(["inspect", files[0]]) == 0
        out = capsys.readouterr().out
        assert "rec.slc" in out

    def test_tune_command(self, capsys):
        assert main(["tune", "--nodes", "16", "--budget", "6",
                     "--scale", str(1 / 64)]) == 0
        out = capsys.readouterr().out
        assert "paper config" in out
        assert "best found" in out

    def test_demo_command(self, capsys):
        assert main(["demo", "--ranks", "3"]) == 0
        out = capsys.readouterr().out
        assert "store tree" in out
        assert "selected" in out

    def test_scaling_quick(self, capsys):
        assert main(["scaling", "--scale", "0.02", "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out and "Figure 3" in out


class TestTenantsCommand:
    def test_tenants_json(self, capsys):
        """Three tenants against one brokered server: every admitted
        request completes, the rate-limited tenant is shed, and the
        command leaves no execution stream running."""
        import json
        import threading

        before = threading.active_count()
        assert main(["tenants", "--quick", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        tenants = stats["tenants"]
        assert set(tenants) == {"nova-interactive", "dune-batch",
                                "abusive-batch"}
        assert tenants["abusive-batch"]["shed"] > 0
        for counters in tenants.values():
            assert counters["admitted"] == counters["completed"]
            assert counters["bytes_in_flight"] == 0
        assert threading.active_count() == before

    @staticmethod
    def printed_latencies(text: str) -> list:
        """The milliseconds of each printed slow-query line."""
        lines = text.split("slowest last):\n", 1)[1].splitlines()
        return [float(line.split("ms", 1)[0]) for line in lines if line]

    def test_slow_queries_print_the_slowest_last(self, capsys):
        assert main(["tenants", "--quick", "--slow", "12"]) == 0
        printed = self.printed_latencies(capsys.readouterr().out)
        assert len(printed) == 12
        assert printed == sorted(printed), (
            f"latencies printed out of order: {printed}")

    def test_slow_queries_are_the_slowest_logged(self, capsys, monkeypatch):
        """The log keeps arrival order; the table shows the ``--slow``
        slowest entries of it, not the last ones served."""
        from repro.broker.core import SlowQueryLog

        arrivals = [7.0, 1.0, 9.0, 3.0, 8.0, 2.0, 5.0, 4.0]
        entries = [{"tenant": "t", "op": "put", "elapsed_s": ms / 1e3,
                    "queued_s": 0.0, "bytes": 1, "at": 0.0}
                   for ms in arrivals]
        monkeypatch.setattr(SlowQueryLog, "entries", lambda self: entries)
        assert main(["tenants", "--quick", "--slow", "3"]) == 0
        assert self.printed_latencies(capsys.readouterr().out) == [
            7.0, 8.0, 9.0]


class TestExportCommand:
    def test_export_cycle(self, tmp_path, capsys):
        out = str(tmp_path / "export.h5l")
        assert main(["export", out]) == 0
        text = capsys.readouterr().out
        assert "exported" in text
        assert "rec.slc" in text
        import os

        assert os.path.exists(out)


def test_demo_commands_remove_their_work_directory(tmp_path, monkeypatch):
    """Regression: ``demo`` and ``export`` left a ``hepnos-demo-*`` /
    ``hepnos-export-*`` directory under the temp root on every run."""
    import os
    import tempfile

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    out = str(tmp_path / "export.h5l")
    assert main(["demo"]) == 0
    assert main(["export", out]) == 0
    assert os.listdir(tmp_path) == ["export.h5l"]
