"""Tests for the mini event-processing framework."""

import threading

import pytest

from repro.errors import HEPnOSError, ProductNotFound
from repro.framework import (
    Analyzer,
    CutFilter,
    EventContext,
    FileSource,
    Filter,
    HEPnOSSink,
    HEPnOSSource,
    MemorySink,
    Pipeline,
    Producer,
)
from repro.hepnos import DataLoader, vector_of
from repro.minimpi import mpirun
from repro.nova import GeneratorConfig, NovaGenerator, write_nova_file
from repro.nova.cafana import Cut
from repro.nova.datamodel import SliceData
from repro.serial import registered_type, serializable


@serializable("fw.EnergySum")
class EnergySum:
    def __init__(self, total=0.0):
        self.total = total

    def serialize(self, ar):
        self.total = ar.io(self.total)


@serializable("fw.UnplannedSlice", version=1)
class UnplannedSlice:
    """``serialize`` takes the version, so no column plan covers it."""

    def __init__(self, cal_e=0.0):
        self.cal_e = cal_e

    def serialize(self, ar, version):
        self.cal_e = ar.io(self.cal_e)


class SumProducer(Producer):
    """Adds the summed calorimetric energy of the slices."""

    def __init__(self, slice_type, label=""):
        super().__init__("sum")
        self.slice_type = slice_type
        self.in_label = label

    def produce(self, event):
        slices = event.get(vector_of(self.slice_type), label=self.in_label)
        event.put(EnergySum(sum(s.cal_e for s in slices)), label="esum")


class EnergyFilter(Filter):
    def __init__(self, threshold):
        super().__init__("efilter")
        self.threshold = threshold

    def filter(self, event):
        return event.get(EnergySum, label="esum").total > self.threshold


class CountingAnalyzer(Analyzer):
    def __init__(self):
        super().__init__("counter")
        self.lock = threading.Lock()
        self.seen = []
        self.jobs = {"begin": 0, "end": 0}

    def begin_job(self):
        self.jobs["begin"] += 1

    def end_job(self):
        self.jobs["end"] += 1

    def analyze(self, event):
        with self.lock:
            self.seen.append(event.triple)


@pytest.fixture()
def nova_files(tmp_path):
    generator = NovaGenerator(GeneratorConfig(events_per_subrun=16,
                                              subruns_per_run=4))
    paths = []
    triples = list(generator.event_numbering(24))
    for i in range(2):
        path = str(tmp_path / f"f{i}.h5l")
        write_nova_file(path, generator, triples[i * 12 : (i + 1) * 12])
        paths.append(path)
    return paths, triples


class TestEventContext:
    def test_put_get_roundtrip(self):
        ctx = EventContext((1, 2, 3))
        ctx._current_module = "m"
        ctx.put(EnergySum(5.0), label="x")
        assert ctx.get(EnergySum, label="x").total == 5.0
        assert ctx.has(EnergySum, label="x")
        assert not ctx.has(EnergySum, label="y")
        assert ctx.provenance[("fw.EnergySum", "x")] == "m"

    def test_missing_product(self):
        ctx = EventContext((1, 2, 3))
        with pytest.raises(ProductNotFound):
            ctx.get(EnergySum, label="none")

    def test_double_put_rejected(self):
        ctx = EventContext((1, 2, 3))
        ctx.put(EnergySum(1.0), label="x")
        with pytest.raises(HEPnOSError, match="overwrites"):
            ctx.put(EnergySum(2.0), label="x")

    def test_triple_accessors(self):
        ctx = EventContext((7, 8, 9))
        assert (ctx.run, ctx.subrun, ctx.event) == (7, 8, 9)


class TestPipelineSemantics:
    def _events(self, n=10):
        for i in range(n):
            ctx = EventContext((1, 0, i))
            ctx._current_module = "source"
            ctx._produced[("vector<nova.SliceData>", "")] = [
                SliceData(slice_id=i, cal_e=float(i))
            ]
            yield ctx

    class _ListSource:
        def __init__(self, events):
            self._events = list(events)

        def events(self):
            return iter(self._events)

    def test_producer_filter_analyzer_flow(self):
        analyzer = CountingAnalyzer()
        pipeline = Pipeline([
            SumProducer(SliceData),
            EnergyFilter(threshold=4.5),
            analyzer,
        ], sink=MemorySink())
        report = pipeline.run(self._ListSource(self._events(10)))
        assert report.events_read == 10
        # Energies are 0..9; filter keeps > 4.5 -> events 5..9.
        assert report.events_completed == 5
        assert len(analyzer.seen) == 5
        assert report.module("efilter").pass_fraction == 0.5
        assert report.module("sum").products_put == 10

    def test_filter_short_circuits(self):
        analyzer = CountingAnalyzer()

        class RejectAll(Filter):
            def filter(self, event):
                return False

        pipeline = Pipeline([SumProducer(SliceData), RejectAll(), analyzer])
        pipeline.run(self._ListSource(self._events(4)))
        assert analyzer.seen == []

    def test_sink_only_gets_survivors(self):
        sink = MemorySink()
        pipeline = Pipeline([
            SumProducer(SliceData), EnergyFilter(threshold=4.5),
        ], sink=sink)
        pipeline.run(self._ListSource(self._events(10)))
        assert len(sink.records) == 5
        assert all(("fw.EnergySum", "esum") in products
                   for products in sink.records.values())

    def test_begin_end_job_called_once(self):
        analyzer = CountingAnalyzer()
        Pipeline([analyzer]).run(self._ListSource(self._events(3)))
        assert analyzer.jobs == {"begin": 1, "end": 1}

    def test_duplicate_labels_rejected(self):
        with pytest.raises(HEPnOSError, match="duplicate"):
            Pipeline([CountingAnalyzer(), CountingAnalyzer()])

    def test_empty_pipeline_rejected(self):
        with pytest.raises(HEPnOSError):
            Pipeline([])

    def test_bad_module_kind_rejected(self):
        class Odd(Producer):
            def produce(self, event):
                pass

        pipeline_ok = Pipeline([Odd()])
        assert pipeline_ok

        from repro.framework.modules import Module

        class Bare(Module):
            """Neither producer, filter, nor analyzer."""

        with pytest.raises(HEPnOSError, match="must be"):
            Pipeline([Bare()])


class TestSources:
    def test_file_source_counts(self, nova_files):
        paths, triples = nova_files
        source = FileSource(paths)
        seen = [ctx.triple for ctx in source.events()]
        assert sorted(seen) == sorted(triples)

    def test_same_physics_both_sources(self, datastore, nova_files):
        """The headline: identical module code, file vs HEPnOS I/O."""
        paths, _ = nova_files
        DataLoader(datastore, "fw/data").ingest_file(paths[0])
        DataLoader(datastore, "fw/data").ingest_file(paths[1])
        slc = registered_type("rec.slc")

        def run_with(source):
            analyzer = CountingAnalyzer()
            pipeline = Pipeline([
                SumProducer(slc),
                EnergyFilter(threshold=2.0),
                analyzer,
            ], sink=MemorySink())
            pipeline.run(source)
            return sorted(analyzer.seen)

        file_result = run_with(_Adapter(FileSource(paths), slc))
        store_result = run_with(HEPnOSSource(
            datastore, "fw/data", products=[(vector_of(slc), "")],
            input_batch_size=32,
        ))
        assert file_result == store_result
        assert file_result  # non-trivial selection


class _Adapter:
    """FileSource yields SliceData products; re-labels them as rec.slc
    rows so the same modules work (the rows carry identical fields)."""

    def __init__(self, source, slc_cls):
        self.source = source
        self.slc_cls = slc_cls
        from repro.hepnos.product import product_type_name

        self.want = product_type_name(vector_of(slc_cls))

    def events(self):
        from repro.hepnos.product import product_type_name

        have = product_type_name(vector_of(SliceData))
        for ctx in self.source.events():
            inner_loader = ctx._loader

            def loader(tname, label, _inner=inner_loader):
                if tname == self.want:
                    rows = _inner(have, label)
                    if rows is None:
                        return None
                    return [
                        self.slc_cls(**{
                            f: getattr(r, f)
                            for f in self.slc_cls.__dataclass_fields__
                        })
                        for r in rows
                    ]
                return _inner(tname, label)

            yield EventContext(ctx.triple, loader=loader)


class TestHEPnOSIO:
    def test_sink_persists_products(self, datastore, nova_files):
        paths, _ = nova_files
        DataLoader(datastore, "fw/sink").ingest_file(paths[0])
        slc = registered_type("rec.slc")
        sink = HEPnOSSink(datastore, "fw/sink")
        pipeline = Pipeline([SumProducer(slc)], sink=sink)
        source = HEPnOSSource(datastore, "fw/sink",
                              products=[(vector_of(slc), "")],
                              input_batch_size=32)
        report = pipeline.run(source)
        assert sink.products_written == report.events_completed
        # Products are now loadable through the ordinary API.
        for event in datastore["fw/sink"].events():
            esum = event.load(EnergySum, label="esum")
            slices = event.load(vector_of(slc))
            assert esum.total == pytest.approx(
                sum(s.cal_e for s in slices), rel=1e-5
            )

    def test_parallel_pipeline(self, datastore, nova_files):
        paths, triples = nova_files
        DataLoader(datastore, "fw/par").ingest_file(paths[0])
        DataLoader(datastore, "fw/par").ingest_file(paths[1])
        slc = registered_type("rec.slc")
        analyzer = CountingAnalyzer()

        def body(comm):
            pipeline = Pipeline([SumProducer(slc), analyzer])
            source = HEPnOSSource(
                datastore, "fw/par", products=[(vector_of(slc), "")],
                input_batch_size=16, dispatch_batch_size=4,
            )
            return pipeline.run(source, comm=comm)

        mpirun(body, 3, timeout=120.0)
        assert sorted(analyzer.seen) == sorted(triples)

    def test_vectorised_prefilter_matches_the_per_event_filter(
            self, datastore, nova_files):
        """A leading CutFilter whose cut declares its columns runs over
        server-projected arrays; the same cut wrapped opaque runs per
        event.  Same accounting, same survivors."""
        paths, _ = nova_files
        DataLoader(datastore, "fw/vec").ingest_file(paths[0])
        slc = registered_type("rec.slc")
        events = list(datastore["fw/vec"].events())
        # One event stored row-wise over its ingested table, one whose
        # rows no column plan covers (it travels as objects), and one
        # event without the product.
        events[1].store(events[1].load(vector_of(slc)))
        events[2].store([UnplannedSlice(5.0)], type_name=vector_of(slc))
        events[0].subrun.create_event(10 ** 6)
        declared = Cut("hot", lambda s: s.cal_e > 2.0,
                       lambda t: t["cal_e"] > 2.0, columns=["cal_e"])
        opaque = Cut("hot", lambda s: declared(s))

        class CountingCutFilter(CutFilter):
            per_event = 0

            def filter(self, event):
                self.per_event += 1
                return super().filter(event)

        def run_with(cut):
            head = CountingCutFilter(cut, vector_of(slc))
            analyzer = CountingAnalyzer()
            source = HEPnOSSource(
                datastore, "fw/vec", products=[(vector_of(slc), "")],
                input_batch_size=8)
            assert source.supports_columnar(head) == (cut is declared)
            report = Pipeline([head, analyzer]).run(source)
            assert head.per_event == (
                0 if cut is declared else report.events_read)
            return (report.events_read,
                    [(m.events_seen, m.events_passed) for m in report.modules],
                    sorted(analyzer.seen))

        vectorised, per_event = run_with(declared), run_with(opaque)
        assert vectorised == per_event
        events_read, _, survivors = vectorised
        assert events_read == len(events) + 1
        assert 0 < len(survivors) < events_read
        assert events[2].triple() in survivors
        assert HEPnOSSource(datastore, "fw/vec").supports_columnar(
            CutFilter(declared, vector_of(slc))) is False  # no single spec
        with pytest.raises(TypeError):
            HEPnOSSource(datastore, "fw/vec", columnar=True)
