"""The everything-together test: one service lifetime, every subsystem.

Story (a plausible campaign):

1. deploy a *persistent* (LSM) HEPnOS service, traced throughout;
2. ingest a synthetic NOvA file sample (HDF2HEPnOS);
3. run an MPI framework pipeline (producer + filter + analyzer) whose
   products persist through a HEPnOSSink;
4. grow the service by one node (rescale) -- all data and products
   survive and stay findable;
5. run the candidate selection again on the rescaled service and check
   it matches the traditional file-based workflow's selection;
6. export products back to a columnar file and re-discover its schema;
7. the diagnostics pass stays free of correctness-class warnings.
"""

import threading

import pytest

from repro.bedrock import BedrockServer, default_hepnos_config
from repro.framework import (
    Analyzer,
    Filter,
    HEPnOSSink,
    HEPnOSSource,
    Pipeline,
    Producer,
)
from repro.hdf5lite import H5LiteFile
from repro.hepnos import (
    DataLoader,
    DataStore,
    DatasetExporter,
    PEPOptions,
    discover_schema,
    vector_of,
)
from repro.mercury import Fabric
from repro.minimpi import mpirun
from repro.monitor import diagnose, trace_session
from repro.nova import GeneratorConfig, generate_file_set, nue_candidate_cut
from repro.rescale import add_server, migrate_live
from repro.serial import registered_type, serializable
from repro.workflows import TraditionalWorkflow, write_file_list


@serializable("grand.EventQuality", version=1)
class EventQuality:
    def __init__(self, n_candidates=0, max_e=0.0):
        self.n_candidates = n_candidates
        self.max_e = max_e

    def serialize(self, ar, version):
        self.n_candidates = ar.io(self.n_candidates)
        self.max_e = ar.io(self.max_e)


@pytest.mark.slow
def test_full_campaign(tmp_path):
    # -- 1. deploy ---------------------------------------------------------
    fabric = Fabric(threaded=True)
    servers = []
    for i in range(2):
        servers.append(BedrockServer(fabric, default_hepnos_config(
            f"sm://node{i}/hepnos", num_providers=4,
            event_databases=4, product_databases=4,
            run_databases=2, subrun_databases=2,
            backend="lsm", storage_root=str(tmp_path / f"store{i}"),
        )))
    fabric.runtime.start()
    with trace_session() as tracer:
        _campaign(tmp_path, fabric, servers, tracer.collector)
    fabric.runtime.shutdown()


def _campaign(tmp_path, fabric, servers, trace):
    datastore = DataStore.connect(fabric, servers)

    # -- 2. ingest ---------------------------------------------------------
    sample = generate_file_set(
        str(tmp_path / "files"), num_files=5, mean_events_per_file=20,
        config=GeneratorConfig(signal_fraction=0.08, events_per_subrun=16,
                               subruns_per_run=4),
    )
    loader = DataLoader(datastore, "grand/run1")
    ingest = mpirun(
        lambda comm: loader.ingest(sample.paths, comm=comm), 2,
        timeout=300.0,
    )[0]
    assert ingest.events_created == sample.total_events
    slc = registered_type("rec.slc")

    # -- 3. framework pipeline over MPI ----------------------------------------
    class QualityProducer(Producer):
        def produce(self, event):
            slices = event.get(vector_of(slc))
            candidates = [s for s in slices if nue_candidate_cut(s)]
            event.put(EventQuality(
                n_candidates=len(candidates),
                max_e=max(s.cal_e for s in slices),
            ), label="quality")

    class HasCandidate(Filter):
        def filter(self, event):
            return event.get(EventQuality, label="quality").n_candidates > 0

    class Tally(Analyzer):
        def __init__(self):
            super().__init__()
            self.lock = threading.Lock()
            self.kept = []

        def analyze(self, event):
            with self.lock:
                self.kept.append(event.triple)

    tally = Tally()

    def rank_body(comm):
        pipeline = Pipeline(
            [QualityProducer(), HasCandidate(), tally],
            sink=HEPnOSSink(datastore, "grand/run1"),
        )
        source = HEPnOSSource(
            datastore, "grand/run1", products=[(vector_of(slc), "")],
            input_batch_size=32, dispatch_batch_size=4,
        )
        return pipeline.run(source, comm=comm)

    reports = mpirun(rank_body, 4, timeout=300.0)
    assert sum(r.events_read for r in reports) == sample.total_events
    assert tally.kept, "no events had candidates; raise signal_fraction"

    # -- 4. rescale: grow by one node ---------------------------------------
    extra = BedrockServer(fabric, default_hepnos_config(
        "sm://node2/hepnos", num_providers=4,
        event_databases=4, product_databases=4,
        run_databases=2, subrun_databases=2,
        backend="lsm", storage_root=str(tmp_path / "store2"),
    ))
    stats = migrate_live(datastore, add_server(datastore.connection, extra))
    assert 0.0 < stats.moved_fraction < 1.0

    # Products written by the pipeline survive the migration.
    kept_set = set(tally.kept)
    survivors = 0
    for event in datastore["grand/run1"].events():
        if event.triple() in kept_set:
            quality = event.load(EventQuality, label="quality")
            assert quality.n_candidates > 0
            survivors += 1
    assert survivors == len(kept_set)

    # -- 5. selection equivalence on the rescaled service ---------------------
    from repro.workflows import HEPnOSWorkflow

    hepnos_result = HEPnOSWorkflow(
        datastore, "grand/run1",
        pep_options=PEPOptions(input_batch_size=64, dispatch_batch_size=8),
    ).select(num_ranks=3)
    file_list = str(tmp_path / "files.txt")
    write_file_list(file_list, sample.paths)
    traditional = TraditionalWorkflow(file_list).run(num_processes=3)
    assert hepnos_result.accepted_ids == traditional.accepted_ids

    # -- 6. export and schema round-trip ----------------------------------------
    out = str(tmp_path / "export.h5l")
    export = DatasetExporter(datastore, "grand/run1").export(
        out, ["rec.slc"], compression="zlib"
    )
    assert export.rows == sample.total_slices
    with H5LiteFile.open(out) as f:
        schemas = discover_schema(f)
    assert [s.class_name for s in schemas] == ["rec.slc"]

    # -- 7. health ---------------------------------------------------------
    report = diagnose(fabric.stats, trace)
    assert report.has("balance")
    assert not report.has("fabric-drops")
    assert not report.has("hot-database")
