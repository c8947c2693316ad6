"""The product read path: every lane x mode x shard-map state against
a plain dict model, plus the ways the lanes compose with an AsyncEngine.
The ``packed`` rows are the object loads that ask for the whole-event
lane -- a ``packed_loads=True`` reader (the default), and
``DataStore.load_products_packed`` -- which since that lane went are
the exact lane's plan: they hold those loads to the exact answers.

``LoadPlan`` -> ``PendingLoad`` is the only multi-container read path,
so one differential covers what used to be per-lane tests: absent
products, a container key listed twice, dual-read during a migration,
an epoch swap between issue and wait, a product moved between the two
scans of a dual-read, and failover to a backup.  Every page also mixes
the ways a product value can be stored: a typed table (what ingest
writes), the row-encoded list ``event.store`` writes -- some of them
over a table -- and a list of a class no column plan covers.
"""

import ast
import dataclasses
import glob
import os
import time

import numpy as np
import pytest

from conftest import deploy
from repro.bedrock import BedrockServer, default_hepnos_config
from repro.faults.chaos import failover_client_policy
from repro.hepnos import (
    AsyncEngine,
    DataStore,
    LoadPlan,
    ParallelEventProcessor,
    PendingLoad,
    PEPOptions,
    Prefetcher,
    WriteBatch,
    load_plan,
    vector_of,
)
from repro.hepnos.column_block import ABSENT, PRESENT, RAW
from repro.hepnos.connection import DbTarget
from repro.hepnos.failover import enable_replication
from repro.hepnos.load_plan import _LANES
from repro.mercury import Fabric
from repro.minimpi import mpirun
from repro.rescale import LiveRescaler, add_server, migrate_live
from repro.serial import dumps, register_type, serializable
from repro.serial.compiled import plan_table
from repro.yokan.client import DatabaseHandle

N_EVENTS = 24
LANES = ("exact", "packed", "columns")
MODES = ("blocking", "engine")
STATES = ("settled", "split", "epoch_swap", "moved_between_scans",
          "dead_primary")


@dataclasses.dataclass
class Hit:
    adc: float = 0.0
    n: int = 0


@serializable("lp.Odd", version=1)
class Odd:
    """Rows no column plan covers: ``serialize`` takes the version."""

    def __init__(self, adc=0.0, n=0):
        self.adc = adc
        self.n = n

    def serialize(self, ar, version):
        self.adc = ar.io(self.adc)
        self.n = ar.io(self.n)

    def __eq__(self, other):
        return (type(other) is Odd
                and (self.adc, self.n) == (other.adc, other.n))


register_type(Hit, "lp.Hit")
HITS = (vector_of(Hit).name, "hits")
FLAG = ("lp.Hit", "flag")


def table_value(hits) -> bytes:
    """``hits`` as ingest would store them, from f4/i4 file columns."""
    columns = {"adc": np.array([h.adc for h in hits], dtype="<f4"),
               "n": np.array([h.n for h in hits], dtype="<i4")}
    layout = plan_table(Hit, {name: c.dtype for name, c in columns.items()})
    return layout.value(layout.records(columns, np.arange(len(hits))),
                        0, len(hits))


def populate(datastore, path="lp"):
    """Events 0..N-1 of one subrun; see :func:`populate_subruns`.
    Returns (subrun, keys, model)."""
    (subrun,), keys, model = populate_subruns(datastore, path, (N_EVENTS,))
    return subrun, keys, model


def populate_subruns(datastore, path, sizes):
    """Subruns 1, 2, ... of run 1 holding ``sizes`` events each,
    numbered from 0.  ``hits`` is missing from every fifth event and
    otherwise stored, by event number mod 4, as a typed table, a table
    then overwritten row-wise, a row-encoded list, or a list of
    :class:`Odd` (on odd events only); ``flag`` exists on even events.
    Written through batches so the product cache stays empty.  Returns
    (subruns, event keys in order, model)."""
    ds = datastore.create_dataset(path)
    model = {}
    overwrites = []
    with WriteBatch(datastore) as batch:
        run = ds.create_run(1, batch=batch)
        subruns = [run.create_subrun(s, batch=batch)
                   for s in range(1, len(sizes) + 1)]
        events = [subrun.create_event(e, batch=batch)
                  for subrun, size in zip(subruns, sizes)
                  for e in range(size)]
        for event in events:
            e = event.number
            if e % 5:
                cls = Odd if e % 4 == 3 else Hit
                hits = [cls(float(e) + 0.25 * j, e) for j in range(1 + e % 3)]
                if e % 4 < 2:
                    stored = hits if e % 4 == 0 else [Hit(-7.5, 7)] + hits
                    datastore.store_encoded_products(
                        [event.key], vector_of(Hit), [table_value(stored)],
                        label="hits", batch=batch)
                if e % 4 == 1:
                    overwrites.append((event, hits))
                elif e % 4 > 1:
                    event.store(hits, label="hits", type_name=vector_of(Hit),
                                batch=batch)
                model[event.key, HITS] = hits
            if e % 2 == 0:
                event.store(Hit(-1.0, e), label="flag", batch=batch)
                model[event.key, FLAG] = Hit(-1.0, e)
    with WriteBatch(datastore) as batch:
        for event, hits in overwrites:
            event.store(hits, label="hits", batch=batch)
    keys = [event.key for subrun in subruns for event in subrun]
    assert len(keys) == sum(sizes)
    assert len(datastore._product_cache) == 0
    return subruns, keys, model


def plan_for(lane, keys):
    if lane == "columns":
        return LoadPlan(keys, [(vector_of(Hit), "hits")], columns=["adc", "n"])
    return LoadPlan(keys, [(vector_of(Hit), "hits"), (Hit, "flag")])


def check(lane, keys, model, result):
    """``result`` is exactly what the dict model says it should be."""
    if lane != "columns":
        assert result == {spec: [model.get((k, spec)) for k in keys]
                          for spec in (HITS, FLAG)}
        return
    projected = 0
    for i, key in enumerate(keys):
        rows = model.get((key, HITS), [])
        lo, hi = result.event_rows(i)
        if rows and type(rows[0]) is Odd:
            assert result.present[i] is RAW and result.raw[i] == rows
            rows = []       # the event's rows travel as objects instead
        else:
            assert result.present[i] is (PRESENT if rows else ABSENT)
        assert result.column("adc")[lo:hi].tolist() == [h.adc for h in rows]
        assert result.column("n")[lo:hi].tolist() == [h.n for h in rows]
        projected += len(rows)
    assert result.rows == projected
    assert set(result.raw) == {i for i, s in enumerate(result.present)
                               if s is RAW}


def run_plan(datastore, mode, plan):
    if mode == "blocking":
        return datastore.load_products(plan)
    return datastore.issue_load(plan).wait().result


def before_first_wait(monkeypatch, hook):
    """Run ``hook`` once, between a load's issue and its wait."""
    real, fired = PendingLoad.wait, []

    def wait(self, *args, **kwargs):
        if not fired:
            fired.append(True)
            hook()
        return real(self, *args, **kwargs)

    monkeypatch.setattr(PendingLoad, "wait", wait)
    return fired


def joining_server(fabric):
    return BedrockServer(fabric, default_hepnos_config(
        "sm://joiner/hepnos", num_providers=4, event_databases=4,
        product_databases=4, run_databases=2, subrun_databases=2,
        dataset_databases=1))


def moving(datastore, keys):
    """Keys whose products change shard under the migrating map."""
    smap = datastore.placement
    return [k for k in keys
            if smap.previous_product_database_for(k) is not None]


def split_migration(fabric, datastore, keys):
    """Stop a live rescale with half the moving products moved."""
    rescaler = LiveRescaler(
        datastore, add_server(datastore.connection,
                              joining_server(fabric)), batch_size=4)
    rescaler.begin()
    movers = moving(datastore, keys)
    assert len(movers) >= 2
    while rescaler.stats.moves_by_kind.get("products", 0) < len(movers) // 2:
        assert rescaler.step()
    assert datastore.placement.migrating


@pytest.fixture()
def world():
    """``build(replicated)`` -> (fabric, servers, datastore); torn down."""
    fabrics = []

    def build(replicated=False):
        fabric = Fabric(threaded=True)
        fabrics.append(fabric)
        if not replicated:
            servers = deploy(fabric)
            fabric.runtime.start()
            return fabric, servers, DataStore.connect(fabric, servers)
        servers = [
            BedrockServer(fabric, default_hepnos_config(
                f"sm://node{i}/hepnos", num_providers=2, event_databases=2,
                product_databases=2, run_databases=1, subrun_databases=1,
                replication=2))
            for i in range(2)
        ]
        fabric.runtime.start()
        datastore = DataStore.connect(
            fabric, enable_replication(servers, replication=2),
            retry_policy=failover_client_policy())
        return fabric, servers, datastore

    yield build
    for fabric in fabrics:
        fabric.runtime.shutdown()


@pytest.mark.parametrize("state", STATES)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("lane", LANES)
def test_plan_matches_model(world, monkeypatch, lane, mode, state):
    fabric, servers, datastore = world(replicated=state == "dead_primary")
    _, keys, model = populate(datastore)
    # A key listed twice, and the tail in reverse: alignment is by
    # position in container_keys, not by key order.
    keys = keys[:6] + [keys[3]] + keys[:5:-1]
    engine = AsyncEngine(datastore, max_inflight=2) if mode == "engine" else None
    counter = datastore.metrics.counter
    fired = [True]

    if state == "split":
        split_migration(fabric, datastore, keys)
    elif state == "epoch_swap":
        joined = add_server(datastore.connection, joining_server(fabric))
        fired = before_first_wait(
            monkeypatch, lambda: migrate_live(datastore, joined, batch_size=8))
    elif state == "moved_between_scans":
        rescaler = LiveRescaler(
            datastore, add_server(datastore.connection,
                                  joining_server(fabric)), batch_size=8)
        rescaler.begin()
        assert moving(datastore, keys)
        smap = datastore.placement
        current = {smap.product_database_for(k) for k in keys}
        lane_cls, issued, fired = _LANES[plan_for(lane, keys).lane], [], []
        real_request = lane_cls.request

        def racing_request(self, handle, indices, size_hint, dispatch):
            target = DbTarget(str(handle.target), handle.provider_id,
                              handle.name)
            if target not in current and not fired:
                # The current shards have answered (nothing there yet);
                # now everything moves, and only then is the old shard
                # asked -- it has already erased its copies.
                fired.append(True)
                for future in issued:
                    future.dispatch()
                    while not future.test():
                        time.sleep(0.001)
                while rescaler.step():
                    pass
            token, future = real_request(self, handle, indices, size_hint,
                                         dispatch)
            issued.append(future)
            return token, future

        monkeypatch.setattr(lane_cls, "request", racing_request)
    elif state == "dead_primary":
        datastore.sync_service()
        servers[1].crash(lose_state=True)

    result = run_plan(datastore, mode, plan_for(lane, keys))
    check(lane, keys, model, result)
    assert fired
    if engine is not None:
        assert engine.stats.submitted > 0
    if state == "epoch_swap":
        assert not datastore.placement.migrating
        assert counter("hepnos.shard.stale_retries").value >= 1
    if state == "dead_primary":
        assert counter("hepnos.failover.activated").value >= 1
        assert datastore.failed_over
    # Scan resistance: batch loads read the product cache but never
    # populate it; projected columns are small and do get cached.
    assert len(datastore._product_cache) == (
        datastore._product_cache.cached_column_entries)
    assert (datastore._product_cache.cached_column_entries > 0) == (
        lane == "columns")


@pytest.mark.parametrize("lane", LANES)
def test_empty_key_list(fabric, datastore, lane):
    fabric.stats.reset()
    result = datastore.load_products(plan_for(lane, []))
    if lane == "columns":
        assert len(result) == 0 and result.rows == 0
    else:
        assert result == {HITS: [], FLAG: []}
    assert fabric.stats.rpc_count == 0


@pytest.mark.parametrize("lane", LANES)
def test_all_cache_hit_page_sends_nothing(fabric, datastore, lane):
    subrun, keys, model = populate(datastore)
    present = [k for k in keys if (k, HITS) in model and (k, FLAG) in model]
    if lane == "columns":
        datastore.load_products(plan_for(lane, present))
    else:
        for event in subrun:  # per-event loads do populate the cache
            if event.key in present:
                event.load(vector_of(Hit), label="hits")
                event.load(Hit, label="flag")
    fabric.stats.reset()
    check(lane, present, model,
          datastore.load_products(plan_for(lane, present)))
    assert fabric.stats.rpc_count == 0


@pytest.mark.parametrize("lane", ("exact", "packed"))
def test_object_lanes_decode_only_what_is_loaded(datastore, monkeypatch,
                                                 lane):
    subrun, keys, model = populate(datastore)
    real, decoded = load_plan.loads, []
    monkeypatch.setattr(load_plan, "loads",
                        lambda value: decoded.append(1) or real(value))
    reader = Prefetcher(datastore, products=SPECS[:1],
                        options=PEPOptions(input_batch_size=N_EVENTS,
                                           packed_loads=lane == "packed"))
    (page,) = reader.pages([subrun])
    assert decoded == []
    chosen = [event for event in page if (event.key, HITS) in model][:5]
    for event in chosen:
        assert event.load(*SPECS[0]) == model[event.key, HITS]
    assert len(decoded) == len(chosen) == 5
    # Absent products and specs the page did not fetch decode nothing.
    missing = next(event for event in page if (event.key, HITS) not in model)
    assert missing.prefetched(*SPECS[0]) is None
    assert chosen[0].prefetched(*SPECS[1]) is None
    assert len(decoded) == 5
    # The blocking form still hands back objects.
    check(lane, keys, model, datastore.load_products(plan_for(lane, keys)))


def test_columns_plan_needs_fields_and_one_spec(datastore):
    from repro.errors import HEPnOSError

    with pytest.raises(HEPnOSError, match="at least one field"):
        datastore.load_products(LoadPlan([], [(Hit, "flag")], columns=[]))
    with pytest.raises(ValueError):
        datastore.load_products(
            LoadPlan([], [(Hit, "flag"), (Hit, "x")], columns=["adc"]))


# -- the lanes compose with an AsyncEngine ------------------------------------


SPECS = [(vector_of(Hit), "hits"), (Hit, "flag")]


def pep_pass(datastore, dataset):
    seen = []

    def handle(event):
        from repro.errors import ProductNotFound

        row = [event.triple()]
        for ptype, label in SPECS:
            try:
                row.append(event.load(ptype, label=label))
            except ProductNotFound:
                row.append(None)
        seen.append(row)

    pep = ParallelEventProcessor(
        datastore, options=PEPOptions(input_batch_size=8),
        products=SPECS)
    pep.process(dataset, handle)
    return seen


def reader_streams(datastore, dataset, subruns, lane, page):
    """``(reader, [(triple, hits, flag), ...])`` for every way of
    reading ``subruns`` (all of ``dataset``) in pages of ``page``
    events: their products through ``lane``, or -- for what a column
    projection leaves on the server -- through ``event.load``."""
    from repro.errors import ProductNotFound

    specs = SPECS[:1] if lane == "columns" else SPECS
    columns = ["adc", "n"] if lane == "columns" else None
    options = PEPOptions(input_batch_size=page, dispatch_batch_size=4,
                         packed_loads=lane != "exact",
                         columnar_loads=lane == "columns")

    def row(event):
        out = [event.triple()]
        for ptype, label in SPECS:
            try:
                out.append(event.load(ptype, label=label))
            except ProductNotFound:
                out.append(None)
        return tuple(out)

    def pep_rows(comm):
        rows = []
        pep = ParallelEventProcessor(datastore, comm, options=options,
                                     products=specs, columns=columns)
        if lane == "columns":
            pep.process_batches(dataset, lambda batch: rows.extend(
                row(event) for event in batch.items))
        else:
            pep.process(dataset, lambda event: rows.append(row(event)))
        return rows

    def prefetcher():
        reader = Prefetcher(datastore, options=options, products=specs,
                            columns=columns)
        pages = list(reader.pages(subruns))
        assert [len(p) for p in pages[:-1]] == [page] * (len(pages) - 1)
        return [row(event) for p in pages for event in p]

    yield "containers", [row(event) for subrun in subruns for event in subrun]
    yield "prefetcher", prefetcher()
    yield "pep", pep_rows(None)
    yield "pep on 3 ranks", sorted(
        (r for rows in mpirun(pep_rows, 3) for r in rows), key=lambda r: r[0])


#: subrun sizes whose pages of 16 straddle subrun boundaries: a page
#: covering a whole subrun and part of the next, a subrun covering whole
#: pages, a one-event and an empty subrun
STRADDLING = (5, 13, 64, 1, 0)


@pytest.mark.parametrize("state", ("settled", "split"))
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("lane", LANES)
def test_every_reader_yields_the_same_stream(world, lane, mode, state):
    """One 24-event subrun in pages of 8, and subruns of ``STRADDLING``
    sizes in pages of 16."""
    fabric, _, datastore = world()
    layouts = [(path, sizes, page, populate_subruns(datastore, path, sizes))
               for path, sizes, page in (("lp", (N_EVENTS,), 8),
                                         ("lp-straddling", STRADDLING, 16))]
    if mode == "engine":
        AsyncEngine(datastore, max_inflight=2)
    if state == "split":
        split_migration(fabric, datastore,
                        [key for *_, (_, keys, _) in layouts for key in keys])
    for path, sizes, page, (subruns, keys, model) in layouts:
        triples = [(1, s, e) for s, size in enumerate(sizes, 1)
                   for e in range(size)]
        expected = [(triple, model.get((key, HITS)), model.get((key, FLAG)))
                    for triple, key in zip(triples, keys)]
        for reader, rows in reader_streams(datastore, datastore[path],
                                           subruns, lane, page):
            assert rows == expected, (path, reader)
    assert datastore.placement.migrating == (state == "split")


def prefetch_pass(datastore, subrun):
    prefetcher = Prefetcher(datastore, options=PEPOptions(input_batch_size=8),
                            products=SPECS)
    events = [(ev.number, ev.prefetched(*SPECS[0]), ev.prefetched(*SPECS[1]))
              for ev in prefetcher.events(subrun)]
    return events, prefetcher


def test_engine_passes_equal_blocking_and_stay_packed(fabric, datastore,
                                                      monkeypatch):
    subrun, keys, _ = populate(datastore)
    dataset = datastore["lp"]
    smap = datastore.placement
    pages = [keys[i:i + 8] for i in range(0, len(keys), 8)]
    # One get_multi of every spec per shard per page -- not one per spec,
    # which is what attaching an engine used to downgrade both readers
    # to -- and no whole-event scan.
    load_rpcs = sum(len({smap.product_database_for(k) for k in page})
                    for page in pages)
    issued = []
    for verb in ("get_multi_nb", "load_prefix_packed_nb"):
        real = getattr(DatabaseHandle, verb)
        monkeypatch.setattr(DatabaseHandle, verb,
                            lambda self, *a, _real=real, _verb=verb, **k:
                            issued.append(_verb) or _real(self, *a, **k))

    def counted(fn):
        fabric.stats.reset()
        out = fn()
        return out, fabric.stats.rpc_count

    _, pep_listing = counted(
        lambda: ParallelEventProcessor(
            datastore, options=PEPOptions(input_batch_size=8)
        ).process(dataset, lambda ev: None))
    _, pf_listing = counted(lambda: list(Prefetcher(
        datastore, options=PEPOptions(input_batch_size=8)).events(subrun)))
    blocking_pep, pep_rpcs = counted(lambda: pep_pass(datastore, dataset))
    (blocking_pf, _), pf_rpcs = counted(
        lambda: prefetch_pass(datastore, subrun))
    assert pep_rpcs - pep_listing == pf_rpcs - pf_listing == load_rpcs
    assert issued == ["get_multi_nb"] * 2 * load_rpcs

    engine = AsyncEngine(datastore, max_inflight=4)
    piped_pep, piped_pep_rpcs = counted(
        lambda: pep_pass(datastore, dataset))
    (piped_pf, prefetcher), piped_pf_rpcs = counted(
        lambda: prefetch_pass(datastore, subrun))
    assert piped_pep == blocking_pep and piped_pf == blocking_pf
    assert (piped_pep_rpcs, piped_pf_rpcs) == (pep_rpcs, pf_rpcs)
    assert engine.stats.submitted == 2 * load_rpcs
    assert prefetcher.pages_prefetched > 0


def test_packed_loads_builds_the_exact_plan(datastore, monkeypatch):
    """``packed_loads`` selects nothing: both settings issue the same
    plans, and no plan can ask for whole events."""
    subrun, _, _ = populate(datastore)
    plans = []
    issue = DataStore.issue_load
    monkeypatch.setattr(DataStore, "issue_load", lambda self, plan:
                        plans.append(plan) or issue(self, plan))
    for packed in (True, False):
        reader = Prefetcher(datastore, products=SPECS,
                            options=PEPOptions(input_batch_size=8,
                                               packed_loads=packed))
        assert len(list(reader.events(subrun))) == N_EVENTS
    half = len(plans) // 2
    assert half == N_EVENTS // 8 and plans[:half] == plans[half:]
    assert {plan.lane for plan in plans} == {"exact"}
    assert [f.name for f in dataclasses.fields(LoadPlan)] == [
        "container_keys", "specs", "columns"]
    assert set(_LANES) == {"exact", "columns"}


#: bulk bytes a page may move per event beyond the named products'
#: stored bytes: a ``get_multi`` answer frames each value in 1-2 bytes
FRAMING = 4


def test_readers_move_only_the_products_they_name(fabric, datastore):
    """Beside each event's small named product sits a large one no
    reader names: a reader pass moves the named products' bytes and a
    few bytes of framing per event, nothing of the large ones."""
    ds = datastore.create_dataset("named")
    with WriteBatch(datastore) as batch:
        subrun = ds.create_run(1, batch=batch).create_subrun(1, batch=batch)
        for e in range(N_EVENTS):
            event = subrun.create_event(e, batch=batch)
            event.store(Hit(float(e), e), label="flag", batch=batch)
            event.store([Hit(float(j), e) for j in range(64)], label="hits",
                        batch=batch)
    named = sum(len(dumps(Hit(float(e), e))) for e in range(N_EVENTS))
    options = PEPOptions(input_batch_size=8)
    specs = [(Hit, "flag")]
    passes = {
        "prefetcher": lambda: list(Prefetcher(
            datastore, options=options, products=specs).events(subrun)),
        "pep": lambda: ParallelEventProcessor(
            datastore, options=options, products=specs).process(
                ds, lambda event: event.load(Hit, label="flag")),
    }
    for reader, one_pass in passes.items():
        fabric.stats.reset()
        one_pass()
        assert 0 < fabric.stats.bulk_bytes <= named + FRAMING * N_EVENTS, (
            f"a {reader} pass moves {fabric.stats.bulk_bytes} bulk bytes "
            f"for {named} named")


def test_columnar_batches_pipeline_through_the_engine(datastore):
    populate(datastore)
    dataset = datastore["lp"]

    def batches():
        out = []
        pep = ParallelEventProcessor(
            datastore,
            options=PEPOptions(input_batch_size=8, dispatch_batch_size=8,
                               columnar_loads=True),
            products=[(vector_of(Hit), "hits")], columns=["adc", "n"])
        pep.process_batches(dataset, lambda batch: out.append((
            [stub.triple() for stub in batch.items],
            batch.block.offsets.tolist(), list(batch.block.present),
            {f: batch.table[f].tolist() for f in batch.block.fields})))
        return out

    blocking = batches()
    # A fresh column cache, or the second pass would never hit the wire.
    datastore._product_cache.clear()
    engine = AsyncEngine(datastore, max_inflight=4)
    assert batches() == blocking
    assert engine.stats.submitted > 0
    assert sum(len(present) for _, _, present, _ in blocking) == N_EVENTS


def test_pipelined_page_survives_dead_primary_without_pep_retries(world):
    _, servers, datastore = world(replicated=True)
    populate(datastore)
    dataset = datastore["lp"]
    expected = pep_pass(datastore, dataset)
    datastore.sync_service()
    AsyncEngine(datastore, max_inflight=4)
    servers[1].crash(lose_state=True)
    # The reader retries nothing: any retryable error reaching it fails
    # the run.
    got = pep_pass(datastore, dataset)
    assert got == expected
    assert datastore.metrics.counter("hepnos.failover.activated").value >= 1


def test_pipelined_page_survives_epoch_swap_without_pep_retries(world):
    fabric, _, datastore = world()
    populate(datastore)
    dataset = datastore["lp"]
    expected = pep_pass(datastore, dataset)
    AsyncEngine(datastore, max_inflight=4)
    joined = add_server(datastore.connection, joining_server(fabric))
    seen = []

    def handle(event):
        if not seen:
            # Page 2 is in flight under the old map right now.
            migrate_live(datastore, joined, batch_size=8)
        seen.append(event.triple())

    pep = ParallelEventProcessor(
        datastore, options=PEPOptions(input_batch_size=8), products=SPECS)
    pep.process(dataset, handle)
    assert seen == [row[0] for row in expected]
    # Every page misses some product, so the swap is noticed and the
    # executor re-asks under the new map.
    assert datastore.metrics.counter("hepnos.shard.stale_retries").value >= 1
    got = pep_pass(datastore, dataset)
    assert got == expected


# -- the reader cannot fork again: one page loop, one place a lane is named ---


SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def _src_trees(pattern):
    """``(path relative to src/, parsed module)`` of every source file
    matching ``pattern``."""
    for path in sorted(glob.glob(os.path.join(SRC, pattern), recursive=True)):
        with open(path, encoding="utf-8") as handle:
            yield os.path.relpath(path, SRC), ast.parse(handle.read())


def _src_calls():
    """``(module path under src/, enclosing function, call node)`` for
    every call in the source tree."""
    for module, tree in _src_trees("**/*.py"):

        def walk(node, function):
            for child in ast.iter_child_nodes(node):
                inner = function
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    inner = child.name
                elif isinstance(child, ast.Call):
                    yield module, function, child
                yield from walk(child, inner)

        yield from walk(tree, None)


def _callee(call) -> str:
    func = call.func
    return getattr(func, "attr", None) or getattr(func, "id", "")


def test_one_module_pages_through_events_and_names_the_lane():
    calls = list(_src_calls())
    issuers = {module for module, _, call in calls
               if _callee(call) == "issue_load"}
    assert issuers == {"repro/hepnos/prefetcher.py"}
    # The datastore's two named conveniences plan over whatever
    # container keys they are given; only the reader plans event pages.
    planners = {(module, function) for module, function, call in calls
                if _callee(call) == "LoadPlan"}
    assert planners == {
        ("repro/hepnos/datastore.py", "load_products_packed"),
        ("repro/hepnos/datastore.py", "load_products_columnar"),
        ("repro/hepnos/prefetcher.py", "pages"),
    }
    event_listers = {
        module for module, _, call in calls
        if _callee(call) == "list_child_keys" and call.args
        and getattr(call.args[0], "value", None) == "events"}
    assert event_listers == {"repro/hepnos/containers.py",
                             "repro/hepnos/prefetcher.py",
                             "repro/rescale/migrate.py"}


def test_framework_and_workflows_use_the_readers_public_surface():
    private = {name
               for reader in (ParallelEventProcessor(None), Prefetcher(None))
               for name in set(dir(reader)) | set(vars(reader))
               if name.startswith("_") and not name.startswith("__")}
    assert {"_reader", "_batch_mode", "_key_pages", "_retire"} <= private
    reached = [(module, node.attr)
               for package in ("framework", "workflows")
               for module, tree in _src_trees(f"repro/{package}/*.py")
               for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr in private]
    assert reached == []
