"""The RPC floor, the reader floor, the column-cache floor, the
consumer floor, the ingest floor and the lookup floor as counts:
Python-level calls per null ``exists``, per event of a no-op pass, per
event of a warm columns pass, per slice the candidate cut examines and
per event a file ingest stores, RPCs per page pass over many subruns,
and server-side key lookups per key a cold exact pass asks.

A timing gate depends on the machine; this one does not.  On the inline
fabric one ``DatabaseHandle.exists`` of an absent key walks the whole
small-RPC path (client encode + seal, forward, hand-off, dispatch,
``_serve``, respond, wake, decode) on one thread, and ``cProfile``'s
call count for it repeats exactly from run to run -- so the next
closure, wrapper frame or per-call object on that path fails here,
before any benchmark runs.  The reader floor is the same method one
layer up: calls per event of a sequential no-op pass over one 1-field
product in pages of 64, through the ParallelEventProcessor and through
the Prefetcher it iterates -- so a second object or wrapper frame per
event fails here too.  The page floor counts round trips instead, on
the benchmark's shape (many 64-event subruns, pages of 1024): a page
that closes at a subrun boundary again, a listing that asks once
more than it needs, or a framework source that pages apart from the
PEP's reader fails here.  The column-cache floor is a warm
columns-lane page pass served by the client column cache: a cache that
goes back to an entry, a probe or a group per event -- rather than per
cached scan answer -- fails here.  The consumer floor is the worker's side
of a row-wise selection: an object-mode cut that goes back to a call
per node of its expression fails here.  The ingest floor is the write
path end to end (file read, product encode, write batch, ``put_multi``
RPC, the ``map`` backend's index): a per-pair call back in the storage
engine fails here.  The lookup floor is the landing protocol seen from
the storage engine: a cold exact pass whose products outgrow the first
landing buffer must look each key up once, plus one straddling key per
extra round trip -- an undersized buffer answered by looking the whole
page up again fails here.  ``python tests/test_rpc_floor.py``
prints the counts (CI puts them in the job summary).
"""

import cProfile
import dataclasses
import gc
import os
import pstats
import tempfile

import pytest

from repro import hepnos
from repro.bedrock import BedrockServer, default_hepnos_config
from repro.framework.io import HEPnOSSource
from repro.hepnos import keys as hkeys
from repro.hepnos import (
    DataLoader,
    ParallelEventProcessor,
    PEPOptions,
    Prefetcher,
    WriteBatch,
    vector_of,
)
from repro.mercury import Fabric
from repro.nova import (
    BEAM,
    GeneratorConfig,
    NovaGenerator,
    nue_candidate_cut,
    write_nova_file,
)
from repro.nova.generator import table_to_slices
from repro.serial import register_type
from repro.utils import SortedMap
from repro.yokan import YokanProvider
from repro.yokan.client import DatabaseHandle

#: calls per null exists the path may make: (untagged, tenant + broker).
#: The tree before the hand-off rewrite made 268 and 321 on this
#: deployment; the rewrite left 160 and 213 (budgets 200 and 250), and
#: one flat message layout per kind signature in place of the product
#: archive left 115 and 168.  The budgets keep those margins.
BUDGET = {False: 144, True: 197}
CALLS = 1000
#: calls per event a no-op pass may make: what the one loading loop made
#: on this deployment while it decoded every prefetched product as the
#: page arrived (the two copies it replaced made 125.30 / 126.31); a
#: page that decodes only what its consumer loads leaves 102.8 and 101.8.
#: That loop made 107.0 and 106.0 (budgets 117.3 and 115.5) until key
#: listings and RPC fields left the product archive: 76.3 and 75.5
#: (budgets 83.6 and 82.3).  Loading exactly the named product keys,
#: not whole events, leaves 52.3 and 51.6, under budgets with the same
#: margins.
READER_BUDGET = {"pep": 57.9, "prefetcher": 56.8}
EVENTS = 512
#: RPCs one ``Prefetcher.pages`` pass may send over ``SUBRUNS`` subruns
#: of ``PER_SUBRUN`` events, one product each, in pages of 1024, per
#: lane.  Pages that closed at every subrun boundary made it 96 in both
#: object lanes (16 x (2 listings + 4 loads)); one page of 1024 events
#: is 17 listings (the last finds the 16th subrun dry) + 4 loads.  The
#: ``packed`` row is a ``packed_loads=True`` reader, which loads the
#: exact product keys as the ``exact`` row does.  The ``source`` input
#: is a sequential ``HEPnOSSource`` pass: the same pages after a walk
#: of the dataset to its subruns, which a
#: ``ParallelEventProcessor(comm=None)`` pass makes too.  Paging one
#: subrun at a time, it sent 82.
PAGE_BUDGET = {"exact": 21, "packed": 21, "columns": 21, "source": 21}
#: RPCs of that walk: one runs listing and one subruns listing
WALK_RPCS = 2
SUBRUNS, PER_SUBRUN = 16, 64
#: calls per event a *warm* columns-lane ``Prefetcher.pages`` pass may
#: make over ``SUBRUNS`` x ``PER_SUBRUN`` events of a 2-row
#: ``vector_of(Flag)`` product, in pages of 1024.  A column cache of one
#: entry per product made 38.23 (a dict per event cached, a group per
#: event probed); one run per cached scan answer left 21.37 (budget 28),
#: and key listings out of the product archive 10.43.
WARM_COLUMNS_BUDGET = 13.7
#: groups a warm page of those may probe into: one per cached answer --
#: one per product database -- not one per event
WARM_GROUPS = 4
#: calls per slice ``nue_candidate_cut`` may make in object mode: its
#: ``__call__`` and the one function the cut compiles to.  A tree of one
#: closure per node made 18.3 on these slices.
CUT_BUDGET = 3
SLICES = 4000
#: calls per event ``DataLoader.ingest_file`` may make on a file of
#: ``EVENTS`` events (8 subruns of 64), after one warm file.  A skip
#: list under the ``map`` backend and a put per pair made it 153.9; the
#: dict-plus-bisect sorted map and one ``put_multi`` loop left 115.9,
#: and Yokan fields out of the product archive 109.4 (budget 125).
#: Queuing a subrun at a time, placed as one batch per flush, leaves
#: 59.9; the budget keeps the same margin.
INGEST_BUDGET = 68.4
#: flags per event of the lookup floor's product: about 300 stored
#: bytes, past the 64 bytes per key a cold ``get_multi`` offers
SCAN_FLAGS = 64


@dataclasses.dataclass
class Flag:
    n: int = 0


register_type(Flag, "floor.Flag")


def deploy(tenants=None) -> list:
    """Two ``map`` servers, two providers each, on an inline fabric."""
    fabric = Fabric()
    return [BedrockServer(fabric, default_hepnos_config(
        f"sm://node{i}/hepnos", num_providers=2, event_databases=2,
        product_databases=2, run_databases=1, subrun_databases=1,
        tenants=tenants)) for i in range(2)]


def null_exists_calls(brokered: bool) -> float:
    """Mean calls per ``exists`` over ``CALLS`` calls on a ``map``
    deployment; ``brokered`` adds the tenant envelope and the broker."""
    servers = deploy({"slots": 8, "interactive_reserve": 2}
                     if brokered else None)
    session = hepnos.connect(
        servers=servers, **({"tenant": "floor", "priority": "interactive"}
                            if brokered else {}))
    try:
        datastore = session.datastore
        db = datastore.handle_for_target(
            datastore.placement.product_database_for(b"no-such-event"))
        assert db.exists(b"no-such-event?") is False  # warm: handles, caches
        # A collector run inside the profile would count the callbacks of
        # other code's garbage (hypothesis times every collection).
        gc.collect()
        gc.disable()
        profile = cProfile.Profile()
        profile.enable()
        for _ in range(CALLS):
            db.exists(b"no-such-event?")
        profile.disable()
        gc.enable()
        return pstats.Stats(profile).total_calls / CALLS
    finally:
        session.close()
        for server in servers:
            server.shutdown()


def reader_calls(reader: str) -> float:
    """Mean calls per event of one no-op pass over ``EVENTS`` events of
    one subrun, one ``Flag`` each, in pages of 64."""
    servers = deploy()
    session = hepnos.connect(servers=servers)
    try:
        datastore = session.datastore
        dataset = datastore.create_dataset("floor")
        with WriteBatch(datastore) as batch:
            subrun = (dataset.create_run(1, batch=batch)
                      .create_subrun(1, batch=batch))
            for e in range(EVENTS):
                subrun.create_event(e, batch=batch).store(
                    Flag(e), label="f", batch=batch)
        options = PEPOptions(input_batch_size=64)
        if reader == "pep":
            pep = ParallelEventProcessor(datastore, options=options,
                                         products=[(Flag, "f")])

            def one_pass():
                pep.process(dataset, lambda event: None)
        else:
            prefetcher = Prefetcher(datastore, options=options,
                                    products=[(Flag, "f")])

            def one_pass():
                for _ in prefetcher.events(subrun):
                    pass
        one_pass()  # warm: handles, size hints
        # Weak-reference callbacks of an earlier deployment's garbage
        # would be counted if the collector ran inside the profile.
        gc.collect()
        gc.disable()
        profile = cProfile.Profile()
        profile.enable()
        one_pass()
        profile.disable()
        gc.enable()
        return pstats.Stats(profile).total_calls / EVENTS
    finally:
        session.close()
        for server in servers:
            server.shutdown()


def page_budget(lane: str) -> int:
    return PAGE_BUDGET[lane] + (WALK_RPCS if lane == "source" else 0)


def page_pass_rpcs(lane: str) -> int:
    """RPCs of one cold ``Prefetcher.pages`` pass through ``lane`` over
    ``SUBRUNS`` subruns of ``PER_SUBRUN`` events, one ``Flag`` each, in
    pages of 1024 (2 servers x 2 providers, 4 product databases).
    ``"source"`` and ``"pep"`` are whole-dataset passes of a
    ``HEPnOSSource`` and of a sequential ``ParallelEventProcessor``."""
    servers = deploy()
    session = hepnos.connect(servers=servers)
    try:
        datastore = session.datastore
        run = datastore.create_dataset("floor").create_run(1)
        with WriteBatch(datastore) as batch:
            subruns = [run.create_subrun(s, batch=batch)
                       for s in range(SUBRUNS)]
            for subrun in subruns:
                for e in range(PER_SUBRUN):
                    subrun.create_event(e, batch=batch).store(
                        Flag(e), label="f", batch=batch)
        options = PEPOptions(input_batch_size=1024,
                             packed_loads=lane != "exact")
        fabric = datastore.fabric
        fabric.stats.reset()
        if lane == "source":
            source = HEPnOSSource(datastore, "floor", products=[(Flag, "f")],
                                  input_batch_size=1024)
            events = sum(1 for _ in source.events())
        elif lane == "pep":
            events = ParallelEventProcessor(
                datastore, options=options, products=[(Flag, "f")]
            ).process(run.dataset, lambda event: None).events_processed
        else:
            reader = Prefetcher(datastore, options=options,
                                products=[(Flag, "f")],
                                columns=["n"] if lane == "columns" else None)
            events = sum(len(page) for page in reader.pages(subruns))
        assert events == SUBRUNS * PER_SUBRUN
        return fabric.stats.rpc_count
    finally:
        session.close()
        for server in servers:
            server.shutdown()


def warm_columns_pass() -> tuple:
    """Mean calls per event of a warm columns-lane ``Prefetcher.pages``
    pass over ``SUBRUNS`` x ``PER_SUBRUN`` events of a 2-row
    ``vector_of(Flag)`` product in pages of 1024, and the groups each
    page's cache probe returned (4 product databases)."""
    servers = deploy()
    session = hepnos.connect(servers=servers)
    try:
        datastore = session.datastore
        run = datastore.create_dataset("floor").create_run(1)
        with WriteBatch(datastore) as batch:
            subruns = [run.create_subrun(s, batch=batch)
                       for s in range(SUBRUNS)]
            for subrun in subruns:
                for e in range(PER_SUBRUN):
                    subrun.create_event(e, batch=batch).store(
                        [Flag(e), Flag(e + 1)], label="f", batch=batch)
        reader = Prefetcher(datastore,
                            options=PEPOptions(input_batch_size=1024),
                            products=[(vector_of(Flag), "f")], columns=["n"])

        def one_pass() -> int:
            return sum(len(page) for page in reader.pages(subruns))

        one_pass()  # cold: fills the column cache
        gc.collect()
        gc.disable()
        profile = cProfile.Profile()
        profile.enable()
        events = one_pass()
        profile.disable()
        gc.enable()
        assert events == SUBRUNS * PER_SUBRUN
        cache = datastore._product_cache
        lookup, groups = cache.lookup_columns, []

        def recording(pkeys, fields):
            found = lookup(pkeys, fields)
            groups.append(len(found))
            return found

        cache.lookup_columns = recording
        one_pass()
        return pstats.Stats(profile).total_calls / events, groups
    finally:
        session.close()
        for server in servers:
            server.shutdown()


def cut_calls() -> float:
    """Mean calls per slice of ``nue_candidate_cut`` over ``SLICES``
    generated slices (the generator's default seed)."""
    generator = NovaGenerator(GeneratorConfig(signal_fraction=0.05))
    slices: list = []
    subrun = 0
    while len(slices) < SLICES:
        table = generator.subrun_table(1000, subrun, range(64))
        slices += table_to_slices(table, range(len(table["slice_id"])))
        subrun += 1
    slices = slices[:SLICES]
    nue_candidate_cut(slices[0])    # warm: the first call compiles
    profile = cProfile.Profile()
    profile.enable()
    for s in slices:
        nue_candidate_cut(s)
    profile.disable()
    return pstats.Stats(profile).total_calls / SLICES


def ingest_calls() -> float:
    """Mean calls per event of ``DataLoader.ingest_file`` on a generated
    file of ``EVENTS`` events, after ingesting one warm file."""
    servers = deploy()
    session = hepnos.connect(servers=servers)
    generator = NovaGenerator(BEAM)
    try:
        with tempfile.TemporaryDirectory() as root:
            paths = []
            for run in (1, 2):  # the warm file, the measured one
                path = os.path.join(root, f"run{run}.h5l")
                write_nova_file(path, generator, [
                    (run, e // 64, e % 64) for e in range(EVENTS)])
                paths.append(path)
            loader = DataLoader(session.datastore, "floor")
            loader.ingest_file(paths[0])
            gc.collect()
            gc.disable()
            profile = cProfile.Profile()
            profile.enable()
            loader.ingest_file(paths[1])
            profile.disable()
            gc.enable()
        return pstats.Stats(profile).total_calls / EVENTS
    finally:
        session.close()
        for server in servers:
            server.shutdown()


def cold_exact_lookups() -> tuple:
    """``(looked_up, extra, asked)`` of one cold ``Prefetcher.pages`` pass
    over ``SUBRUNS`` x ``PER_SUBRUN`` events of a ``SCAN_FLAGS``-flag
    product in pages of 1024 (4 product databases): product keys the
    servers' ``map`` indexes looked up, ``get_multi`` round trips beyond
    one per request, and product keys the pass asked."""
    counts = {"looked_up": 0, "asked": 0, "requests": 0, "served": 0}
    suffix = hkeys.product_key(b"", "f", vector_of(Flag).name)
    lookup = SortedMap.get
    serve = YokanProvider._rpc_get_multi
    issue = DatabaseHandle.get_multi_nb

    def counted_lookup(self, key, default=None):
        counts["looked_up"] += key.endswith(suffix)
        return lookup(self, key, default)

    def counted_serve(self, *args):
        counts["served"] += 1
        return serve(self, *args)

    def counted_issue(self, keys, *args, **kwargs):
        counts["requests"] += 1
        counts["asked"] += len(keys)
        return issue(self, keys, *args, **kwargs)

    # Providers bind their handlers when they register them: count from
    # before the deployment stands up.
    SortedMap.get = counted_lookup
    YokanProvider._rpc_get_multi = counted_serve
    DatabaseHandle.get_multi_nb = counted_issue
    try:
        servers = deploy()
        session = hepnos.connect(servers=servers)
        try:
            datastore = session.datastore
            run = datastore.create_dataset("floor").create_run(1)
            with WriteBatch(datastore) as batch:
                subruns = [run.create_subrun(s, batch=batch)
                           for s in range(SUBRUNS)]
                for subrun in subruns:
                    for e in range(PER_SUBRUN):
                        subrun.create_event(e, batch=batch).store(
                            [Flag(e + i) for i in range(SCAN_FLAGS)],
                            label="f", batch=batch)
            reader = Prefetcher(datastore,
                                options=PEPOptions(input_batch_size=1024),
                                products=[(vector_of(Flag), "f")])
            counts.update(looked_up=0, asked=0, requests=0, served=0)
            events = sum(len(page) for page in reader.pages(subruns))
        finally:
            session.close()
            for server in servers:
                server.shutdown()
    finally:
        SortedMap.get = lookup
        YokanProvider._rpc_get_multi = serve
        DatabaseHandle.get_multi_nb = issue
    assert events == SUBRUNS * PER_SUBRUN
    return (counts["looked_up"], counts["served"] - counts["requests"],
            counts["asked"])


def test_cold_exact_pass_looks_up_each_key_once():
    first = cold_exact_lookups()
    assert first == cold_exact_lookups(), "the count must repeat exactly"
    looked_up, extra, asked = first
    assert asked > 0 and extra > 0, (
        "the products must outgrow the first landing buffer")
    assert looked_up / asked <= 1 + extra / asked, (
        f"a cold exact pass looks up {looked_up} keys for {asked} asked, "
        f"{extra} extra round trips: at most one straddling key each")


def test_ingest_stays_within_its_call_budget():
    first, second = ingest_calls(), ingest_calls()
    # Process-wide bulk and engine ids keep counting across deployments,
    # so a later pass encodes a few more multi-byte varints.
    assert abs(first - second) < 0.1, "the count must repeat"
    assert first <= INGEST_BUDGET, (
        f"ingesting a file makes {first:.2f} Python-level calls per event, "
        f"budget {INGEST_BUDGET}")


@pytest.mark.parametrize("lane", sorted(PAGE_BUDGET))
def test_page_pass_stays_within_its_rpc_budget(lane):
    rpcs = page_pass_rpcs(lane)
    assert rpcs == page_pass_rpcs(lane), "the count must repeat exactly"
    if lane == "source":
        assert rpcs == page_pass_rpcs("pep"), (
            "a framework source pass must page as the PEP's reader does")
    assert rpcs <= page_budget(lane), (
        f"a {lane} page pass over {SUBRUNS} subruns x {PER_SUBRUN} events "
        f"sends {rpcs} RPCs, budget {page_budget(lane)}")


def test_warm_column_pass_stays_within_its_call_budget():
    (first, groups), (second, _) = warm_columns_pass(), warm_columns_pass()
    assert first == second, "the count must repeat exactly"
    assert groups and all(0 < n <= WARM_GROUPS for n in groups), (
        f"a warm page probes into {groups} cached groups, "
        f"at most {WARM_GROUPS}")
    assert first <= WARM_COLUMNS_BUDGET, (
        f"a warm columns pass makes {first:.2f} Python-level calls per "
        f"event, budget {WARM_COLUMNS_BUDGET}")


@pytest.mark.parametrize("reader", sorted(READER_BUDGET))
def test_noop_pass_stays_within_its_call_budget(reader):
    first, second = reader_calls(reader), reader_calls(reader)
    assert abs(first - second) < 0.01, "the count must repeat exactly"
    assert first <= READER_BUDGET[reader], (
        f"a no-op {reader} pass makes {first:.1f} Python-level calls per "
        f"event, budget {READER_BUDGET[reader]}")


def test_cut_stays_within_its_call_budget():
    first, second = cut_calls(), cut_calls()
    assert first == second, "the count must repeat exactly"
    assert first <= CUT_BUDGET, (
        f"nue_candidate_cut makes {first:.2f} Python-level calls per slice, "
        f"budget {CUT_BUDGET}")


@pytest.mark.parametrize("brokered", [False, True],
                         ids=["untagged", "tenant+broker"])
def test_null_exists_stays_within_its_call_budget(brokered):
    first, second = null_exists_calls(brokered), null_exists_calls(brokered)
    assert abs(first - second) < 0.01, "the count must repeat exactly"
    assert first <= BUDGET[brokered], (
        f"a null exists makes {first:.0f} Python-level calls, "
        f"budget {BUDGET[brokered]}")


if __name__ == "__main__":
    for brokered, label in ((False, "untagged"), (True, "tenant + broker")):
        print(f"null exists, inline fabric, {label}: "
              f"{null_exists_calls(brokered):.0f} Python-level calls "
              f"(budget {BUDGET[brokered]})")
    for reader, budget in sorted(READER_BUDGET.items()):
        print(f"no-op pass, inline fabric, {reader}: "
              f"{reader_calls(reader):.1f} Python-level calls per event "
              f"(budget {budget})")
    for lane in sorted(PAGE_BUDGET):
        print(f"page pass, {SUBRUNS} subruns x {PER_SUBRUN} events, pages "
              f"of 1024, {lane} lane: {page_pass_rpcs(lane)} RPCs "
              f"(budget {page_budget(lane)})")
    calls, groups = warm_columns_pass()
    print(f"warm columns pass, {SUBRUNS} subruns x {PER_SUBRUN} events, "
          f"pages of 1024: {calls:.2f} Python-level calls per event "
          f"(budget {WARM_COLUMNS_BUDGET}), {max(groups)} cached groups "
          f"per page (at most {WARM_GROUPS})")
    print(f"nue_candidate_cut, object mode: {cut_calls():.2f} Python-level "
          f"calls per slice (budget {CUT_BUDGET})")
    print(f"DataLoader.ingest_file, inline fabric, {EVENTS} events: "
          f"{ingest_calls():.2f} Python-level calls per event "
          f"(budget {INGEST_BUDGET})")
    looked_up, extra, asked = cold_exact_lookups()
    print(f"cold exact pass, {SUBRUNS} subruns x {PER_SUBRUN} events of "
          f"{SCAN_FLAGS} flags, pages of 1024: {looked_up / asked:.4f} "
          f"keys looked up per key asked (at most "
          f"{1 + extra / asked:.4f}: {extra} extra round trips)")
