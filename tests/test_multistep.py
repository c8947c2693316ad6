"""Tests for multi-step pipelines and copy-forward elimination."""

import numpy as np
import pytest

from repro.errors import HEPnOSError, ProductNotFound
from repro.hepnos import WriteBatch, vector_of
from repro.minimpi import mpirun
from repro.serial import serializable
from repro.workflows import FileBasedPipeline, HEPnOSPipeline, StepSpec


@serializable("ms.RawHit")
class RawHit:
    def __init__(self, adc=0.0):
        self.adc = adc

    def serialize(self, ar):
        self.adc = ar.io(self.adc)


@serializable("ms.CalibHit")
class CalibHit:
    def __init__(self, energy=0.0):
        self.energy = energy

    def serialize(self, ar):
        self.energy = ar.io(self.energy)


@serializable("ms.Cluster")
class Cluster:
    def __init__(self, total=0.0, nhits=0):
        self.total = total
        self.nhits = nhits

    def serialize(self, ar):
        self.total = ar.io(self.total)
        self.nhits = ar.io(self.nhits)

    def __eq__(self, other):
        return (self.total, self.nhits) == (other.total, other.nhits)


@pytest.fixture()
def raw_dataset(datastore):
    ds = datastore.create_dataset("ms/raw")
    with WriteBatch(datastore) as batch:
        subrun = ds.create_run(1, batch=batch).create_subrun(1, batch=batch)
        for e in range(30):
            event = subrun.create_event(e, batch=batch)
            hits = [RawHit(float(e * 10 + i)) for i in range(3)]
            event.store(hits, label="daq", batch=batch)
    return ds


def calib_step():
    def fn(inputs):
        hits = inputs[("vector<ms.RawHit>", "daq")]
        return [CalibHit(h.adc * 0.01) for h in hits]

    return StepSpec("calibrate", fn,
                    reads=[(vector_of(RawHit), "daq")], out_label="calib")


def cluster_step():
    def fn(inputs):
        hits = inputs[("vector<ms.CalibHit>", "calib")]
        return Cluster(total=sum(h.energy for h in hits), nhits=len(hits))

    return StepSpec("cluster", fn,
                    reads=[(vector_of(CalibHit), "calib")],
                    out_label="cluster")


def summary_step():
    """Reads BOTH step-1 output and the ORIGINAL raw data -- the access
    pattern that forces copy-forward in the file paradigm."""

    def fn(inputs):
        cluster = inputs[("ms.Cluster", "cluster")]
        raw = inputs[("vector<ms.RawHit>", "daq")]
        return Cluster(total=cluster.total + len(raw), nhits=cluster.nhits)

    return StepSpec("summary", fn,
                    reads=[(Cluster, "cluster"), (vector_of(RawHit), "daq")],
                    out_label="summary")


class TestHEPnOSPipeline:
    def test_two_step_chain(self, datastore, raw_dataset):
        pipeline = HEPnOSPipeline(datastore, "ms/raw", input_batch_size=8)
        report = pipeline.run([calib_step(), cluster_step()])
        assert [s.name for s in report.steps] == ["calibrate", "cluster"]
        assert all(s.events == 30 for s in report.steps)
        assert report.total_products == 60
        event = datastore["ms/raw"][1][1][5]
        cluster = event.load(Cluster, label="cluster")
        assert cluster.nhits == 3
        assert cluster.total == pytest.approx((50 + 51 + 52) * 0.01)

    def test_later_step_reads_original_data(self, datastore, raw_dataset):
        """No copy forward: step 3 reads step-2 output AND raw products."""
        pipeline = HEPnOSPipeline(datastore, "ms/raw", input_batch_size=8)
        pipeline.run([calib_step(), cluster_step(), summary_step()])
        event = datastore["ms/raw"][1][1][0]
        summary = event.load(Cluster, label="summary")
        baseline = event.load(Cluster, label="cluster")
        assert summary.total == pytest.approx(baseline.total + 3)

    def test_step_can_filter(self, datastore, raw_dataset):
        def selective(inputs):
            hits = inputs[("vector<ms.RawHit>", "daq")]
            if hits[0].adc < 100:
                return None  # rejected events get no output product
            return CalibHit(1.0)

        pipeline = HEPnOSPipeline(datastore, "ms/raw", input_batch_size=8)
        report = pipeline.run([StepSpec(
            "select", selective, reads=[(vector_of(RawHit), "daq")],
            out_label="sel",
        )])
        assert 0 < report.steps[0].products_written < 30
        with pytest.raises(ProductNotFound):
            datastore["ms/raw"][1][1][0].load(CalibHit, label="sel")
        assert datastore["ms/raw"][1][1][20].load(CalibHit, label="sel")

    def test_parallel_chain_matches_sequential(self, datastore, raw_dataset):
        pipeline = HEPnOSPipeline(datastore, "ms/raw", input_batch_size=8)

        def body(comm):
            return pipeline.run([calib_step(), cluster_step()], comm=comm)

        mpirun(body, 3, timeout=120.0)
        clusters = [
            ev.load(Cluster, label="cluster")
            for ev in datastore["ms/raw"].events()
        ]
        assert len(clusters) == 30
        assert all(c.nhits == 3 for c in clusters)

    def test_empty_pipeline_rejected(self, datastore, raw_dataset):
        with pytest.raises(HEPnOSError):
            HEPnOSPipeline(datastore, "ms/raw").run([])


class TestFileBasedPipeline:
    def _tables(self, n=30):
        return {"daq": np.arange(n * 3, dtype=np.float64).reshape(n, 3)}

    def _steps(self):
        calibrate = StepSpec(
            "calibrate", lambda inp: inp["daq"] * 0.01, out_label="calib"
        )
        cluster = StepSpec(
            "cluster", lambda inp: inp["calib"].sum(axis=1),
            out_label="cluster",
        )
        summary = StepSpec(
            "summary",
            lambda inp: inp["cluster"] + inp["daq"].shape[1],
            out_label="summary",
        )
        return [calibrate, cluster, summary]

    def _needs(self):
        return {0: {"daq"}, 1: {"calib"}, 2: {"cluster", "daq"}}

    def test_copy_forward_accounted(self):
        pipeline = FileBasedPipeline()
        final, report = pipeline.run(self._tables(), self._steps(),
                                     self._needs())
        # Step 1 must copy 'daq' forward although it does not use it.
        step1 = report.steps[1]
        assert step1.bytes_copied_forward > 0
        assert "summary" in final

    def test_results_match_hepnos_semantics(self):
        final, _ = FileBasedPipeline().run(
            self._tables(), self._steps(), self._needs()
        )
        daq = self._tables()["daq"]
        expected = (daq * 0.01).sum(axis=1) + 3
        assert np.allclose(final["summary"], expected)

    def test_io_grows_with_copy_forward(self):
        """The headline: carrying 'daq' through the chain inflates I/O
        over the sum of actually-new data."""
        _, report = FileBasedPipeline().run(
            self._tables(), self._steps(), self._needs()
        )
        new_data = sum(
            s.bytes_written - s.bytes_copied_forward for s in report.steps
        )
        assert report.total_bytes_written > 1.5 * new_data

    def test_empty_pipeline_rejected(self):
        with pytest.raises(HEPnOSError):
            FileBasedPipeline().run({}, [], {})


class TestCopyForwardElimination:
    def test_hepnos_writes_each_product_once(self, datastore, raw_dataset):
        """The cross-paradigm comparison: same 3-step chain, HEPnOS
        writes only new products; the file chain re-writes carried data."""
        pipeline = HEPnOSPipeline(datastore, "ms/raw", input_batch_size=8)
        hepnos_report = pipeline.run(
            [calib_step(), cluster_step(), summary_step()]
        )
        # Every byte HEPnOS wrote is a new product; nothing was carried.
        assert hepnos_report.total_products == 90  # 3 steps x 30 events

        n = 30
        tables = {"daq": np.arange(n * 3, dtype=np.float64).reshape(n, 3)}
        steps = TestFileBasedPipeline()._steps()
        needs = TestFileBasedPipeline()._needs()
        _, file_report = FileBasedPipeline().run(tables, steps, needs)
        copied = sum(s.bytes_copied_forward for s in file_report.steps)
        assert copied > 0
