"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Not part of the tier-1 ``testpaths``: the smoke and traced runs below
drive the whole stack for about a minute.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(REPO, "src"))

import compare  # noqa: E402 - needs the paths above
import harness  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
from metrics import END_TO_END  # noqa: E402
from workloads import WORKLOADS, build_corpus  # noqa: E402

with open(os.path.join(REPO, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


# -- the declaration ---------------------------------------------------------

def test_declared_metrics_are_the_issues():
    """``BENCHMARK.json`` declares a subset of ``metrics.END_TO_END`` under
    the same names, units and directions; its bounds (single runs, the
    driver's) are never tighter than the issue's (medians of ten)."""
    for m in BENCHMARK["end_to_end"]:
        unit, better, bound = END_TO_END[m["name"]]
        assert (m["unit"], m["better"]) == (unit, better)
        assert bound <= m["bound"] <= 0.25
    assert "setup_s" in {m["name"] for m in BENCHMARK["end_to_end"]}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


# -- statistics ------------------------------------------------------------

def test_quartiles_match_the_drivers():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0, 6.0, 7.0]
    assert stats.quartiles(samples) == (2.0, 4.0, 6.0)
    assert stats.lower_quartile(samples) == 2.0
    assert stats.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert stats.spread([10.0, 10.0, 10.0]) == 0.0
    assert stats.spread(samples) == pytest.approx(1.0)


def test_percentile_needs_ten_samples_beyond():
    thousand = list(range(1, 1001))
    assert stats.percentile(thousand, 99.0) == 990
    assert stats.percentile(thousand, 50.0) == 500
    with pytest.raises(ValueError, match="9 samples beyond"):
        stats.percentile(thousand[:999], 99.0)
    assert stats.highest_supported_percentile(1000) == 99.0
    assert stats.highest_supported_percentile(100) == 90.0
    assert stats.highest_supported_percentile(20) == 50.0
    assert stats.highest_supported_percentile(19) is None


# -- the machine's speed ------------------------------------------------------

def test_timed_units_are_recorded_on_the_reference_machine():
    rec = harness.Recorder()
    # a unit that took 3 s while the kernel took twice its reference time
    slow = 2.0 * harness.REFERENCE_KERNEL_S
    assert rec.timed("pass_s", 3.0, rec.machine.slowdown(slow, slow)) == 1.5
    assert rec.samples["pass_s"] == [1.5] and rec.raw["pass_s"] == [3.0]
    assert rec.machine.slowdowns == [2.0]


def test_an_operation_runs_between_two_probes():
    rec = harness.Recorder()
    seconds = rec.operation("pass", lambda: time.sleep(0.02), "pass_s")
    assert len(rec.machine.kernel_s) == 2          # before and after
    assert rec.raw["pass_s"][0] >= 0.02
    assert seconds == rec.samples["pass_s"][0]
    assert seconds == pytest.approx(
        rec.raw["pass_s"][0] / rec.machine.slowdowns[0])
    # an unsampled operation (it times its own units) is not bracketed
    rec.operation("phase", lambda: None)
    assert len(rec.machine.kernel_s) == 2


def test_a_probe_closes_one_bracket_and_opens_the_next():
    machine = harness.Machine()
    closing = machine.probe(harness.UNIT_PROBE)
    assert machine.before() == closing and len(machine.kernel_s) == 1
    time.sleep(0.01)                               # no longer "just now"
    assert machine.before() != closing and len(machine.kernel_s) == 2


# -- inputs ------------------------------------------------------------------

def corpus_digest(corpus) -> str:
    digest = hashlib.sha256()
    for path in corpus.paths:
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def test_same_seed_same_inputs(tmp_path):
    workload = WORKLOADS["point_mixed"]
    first = build_corpus(workload, 11, str(tmp_path / "a"), smoke=True)
    again = build_corpus(workload, 11, str(tmp_path / "b"), smoke=True)
    other = build_corpus(workload, 12, str(tmp_path / "c"), smoke=True)
    assert corpus_digest(first) == corpus_digest(again)
    assert first.point_ops == again.point_ops
    assert first.accepted_ids == again.accepted_ids
    assert first.slice_ids == again.slice_ids
    assert corpus_digest(first) != corpus_digest(other)
    assert first.point_ops != other.point_ops
    # Another seed is other data, never another amount of work.
    assert first.events == other.events
    assert first.file_events == other.file_events


def test_every_server_has_its_own_roots(tmp_path):
    workload = WORKLOADS["select_durable_lsm"]
    paths = []
    for index in range(harness.SERVERS):
        config = harness.server_config(workload, index, str(tmp_path))
        for provider in config["providers"]:
            for database in provider["config"]["databases"]:
                paths.append(database["config"]["path"])
                paths.append(database["config"]["wal_path"])
    assert len(paths) == len(set(paths))


# -- the watchdog ------------------------------------------------------------

def test_deadline_turns_a_hang_into_a_failed_operation():
    rec = harness.Recorder()
    real = harness.PHASE_DEADLINE_S
    harness.PHASE_DEADLINE_S = 0.05
    try:
        t0 = time.monotonic()
        with pytest.raises(harness.PhaseDeadline):
            rec.operation("stuck pass", lambda: time.sleep(5), "pass_s")
        assert time.monotonic() - t0 < 1.0
    finally:
        harness.PHASE_DEADLINE_S = real
    assert (rec.attempted, rec.failed) == (1, 1)
    assert "pass_s" not in rec.samples


def test_wrong_output_is_a_failed_operation():
    rec = harness.Recorder()
    with pytest.raises(harness.RoundAborted):
        rec.operation("pass", lambda: "selected the wrong slices", "pass_s")
    assert (rec.attempted, rec.failed) == (1, 1)
    assert "pass_s" not in rec.samples


# -- compare -----------------------------------------------------------------

def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, [x * 1.05 for x in steady],
                           "lower", 0.10)[1] == "ok"
    assert compare.verdict(steady, [x * 1.30 for x in steady],
                           "lower", 0.10)[1] == "regressed"
    assert compare.verdict(steady, [x * 0.70 for x in steady],
                           "higher", 0.10)[1] == "regressed"
    noisy = [100.0, 140.0, 80.0, 120.0, 60.0]
    assert compare.verdict(noisy, [x * 1.3 for x in noisy],
                           "lower", 0.10)[1] == "unresolved"
    # Better in every run is ok at any spread.
    assert compare.verdict(noisy, [x * 0.4 for x in noisy],
                           "lower", 0.10)[1] == "ok"


# -- the runs ------------------------------------------------------------------

def last_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_of_every_workload(name, tmp_path, capsys):
    t0 = time.monotonic()
    cpus = os.sched_getaffinity(0)
    code = run.main(["--workload", name, "--smoke", "--seed", "3",
                     "--out", str(tmp_path)])
    assert time.monotonic() - t0 < 20.0
    assert os.sched_getaffinity(0) == cpus
    result = last_line(capsys)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"]
                                      for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    with open(tmp_path / f"{name}-seed3.json") as f:
        detail = json.load(f)
    assert detail["metrics"]["failed_op_share"]["value"] == 0
    # Nothing restarts or is stored where nothing is durable.
    durable_only = {"restart_s", "stored_bytes_per_event"}
    assert (durable_only <= set(detail["metrics"])) == WORKLOADS[name].durable
    assert durable_only.isdisjoint(detail["metrics"]) != WORKLOADS[name].durable
    assert detail["samples"]["setup_s"]["n"] >= 3
    assert os.listdir(tmp_path) == [f"{name}-seed3.json"]   # work dir gone


def test_traced_run_reports_every_declared_layer_metric(tmp_path, capsys):
    code = run.main(["--workload", "select_columnar", "--trace", "1",
                     "--seed", "3", "--out", str(tmp_path)])
    result = last_line(capsys)
    assert code == 0 and result["correct"]
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    with open(tmp_path / "select_columnar-seed3-trace.trace.json") as f:
        spans = json.load(f)["spans"]
    names = {s["name"] for s in spans}
    assert {"round", "workflows.ingest", "workflows.select", "point_phase",
            "bedrock.restart", "loader.ingest", "pep.noop"} <= names
    by_id = {s["id"]: s for s in spans}
    for span in spans:
        assert span["end"] >= span["start"]
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            assert parent["start"] <= span["start"]
            assert span["end"] <= parent["end"]
