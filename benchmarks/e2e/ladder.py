"""The layer ladder of the traced run: where a round's time goes.

After its rounds the traced run deploys one more service, ingests the
same files and times direct calls into each layer's public functions,
fed with that deployment's own keys, values and batches.  The calls
form a *ladder*: each rung contains the rungs below it, so a rung's
self time is its time minus the rungs it calls (``CALLS``,
``LANE_CALLS``).  Every rung runs chunk by chunk under a
benchmark-side span, between probes of the machine's speed like the
end-to-end phases, and reports the lower quartile of its per-item chunk
times on the reference machine.

Layer names are module names.  A layer is timed with this workload's
records whether or not the workload's deployment has it on its path;
counts read from the stats surfaces are 0 where it has not.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from repro.broker import RequestBroker
from repro.hepnos import (DataLoader, ParallelEventProcessor, WriteBatch,
                          vector_of)
from repro.minimpi import SUM, mpirun
from repro.nova.cafana import nue_candidate_cut
from repro.nova.files import iter_file_events
from repro.serial import columnar, dumps, loads, registered_type
from repro.workflows import TraditionalWorkflow
from repro.yokan import packed, wire
from repro.yokan.backend import open_backend

import harness
import stats
from workloads import DATASET, POINT_BLOCK, SELECT_RANKS

now = time.perf_counter
US = 1e6
#: events per timed chunk of a rung
CHUNK = 256
HEADER_CLASS = "rec.hdr"

#: rung -> the rungs it calls; times are seconds per event (per call for
#: the single-operation rungs).  The same on every workload ...
CALLS = {
    "workflows.ingest": ("loader.ingest",),
    "loader.ingest": ("hdf5lite.read", "write_batch.store_flush"),
    "write_batch.store_flush": ("serial.encode", "yokan.put_multi"),
    "yokan.put_multi": ("backend.put_multi",),
    "datastore.list_events": ("yokan.list_keys",),
    "yokan.list_keys": ("backend.list_keys",),
    "datastore.load_packed": ("serial.decode", "yokan.load_prefix_packed"),
    "yokan.load_prefix_packed": ("backend.scan_prefix",),
    "datastore.load_columnar": ("serial.columnar_decode",
                                "yokan.scan_columns"),
    "yokan.scan_columns": ("backend.scan_prefix",),
    "datastore.load_single": ("serial.decode_one", "yokan.get"),
    "yokan.get": ("backend.get",),
    "datastore.store_single": ("yokan.put_one",),
}
#: ... except the read pass, whose rungs depend on the lane
LANE_CALLS = {
    False: {"workflows.select": ("pep.noop", "nova.cut_rowwise",
                                 "minimpi.reduce"),
            "pep.noop": ("datastore.list_events", "datastore.load_packed")},
    True: {"workflows.select": ("pep.noop", "nova.cut_mask",
                                "minimpi.reduce"),
           # a steady pass finds its columns in the client's cache
           "pep.noop": ("datastore.list_events",
                        "datastore.load_columnar_warm")},
}


def self_time(calls: dict, times: dict, rung: str) -> float:
    """A rung's time minus its children's, floored at 0 (a negative one
    is a mis-measured rung and shows as a ladder that does not close)."""
    return max(0.0, times[rung] - sum(times[c] for c in calls.get(rung, ())))


def closure_pct(calls: dict, times: dict, top: str) -> float:
    """Self times of every rung below ``top``, as a share of ``top``."""
    below, stack = set(), list(calls[top])
    while stack:
        rung = stack.pop()
        if rung not in below:
            below.add(rung)
            stack.extend(calls.get(rung, ()))
    return 100.0 * sum(self_time(calls, times, r) for r in below) / times[top]


def chunked(items: list, size: int = CHUNK):
    for i in range(0, len(items), size):
        yield items[i:i + size]


#: a rung is probed (``harness.Machine``) at least this often
PROBE_EVERY_S = 0.05


class Ladder:
    """Rung times (seconds per item, on the reference machine like the
    end-to-end times) and the layer metrics so far."""

    def __init__(self, tracer: harness.Tracer, machine: harness.Machine):
        self.tracer = tracer
        self.machine = machine
        self.times: dict = {}
        self.metrics: dict = {}
        #: the machine's slowdown around the last chunk timed
        self.slowdown = 1.0

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def rung(self, name: str, items: list, fn, size: int = CHUNK,
             per=len) -> float:
        """Time ``fn(chunk)`` over ``items``; lower-quartile seconds per
        item, where ``per(chunk)`` counts the items a chunk stands for.
        Chunks run between probes of the machine, one every
        ``PROBE_EVERY_S`` of work or more often."""
        samples, pending, worked = [], [], 0.0
        machine = self.machine

        def close(before: float) -> float:
            after = machine.probe(harness.UNIT_PROBE)
            self.slowdown = machine.slowdown(before, after)
            samples.extend(s / self.slowdown for s in pending)
            pending.clear()
            return after

        with self.tracer.span(name, items=len(items)):
            before = machine.before(harness.UNIT_PROBE)
            for part in chunked(items, size):
                t0 = now()
                fn(part)
                seconds = now() - t0
                pending.append(seconds / per(part))
                worked += seconds
                if worked >= PROBE_EVERY_S:
                    before, worked = close(before), 0.0
            if pending:
                close(before)
        self.times[name] = stats.lower_quartile(samples)
        return self.times[name]

    def repeated(self, name: str, fn, repeats: int, items: int) -> float:
        """Time ``fn()`` ``repeats`` times; lower-quartile s per item."""
        return self.rung(name, list(range(repeats)), lambda _part: fn(),
                         size=1, per=lambda _part: items)


def measure(workload, corpus, tracer: harness.Tracer,
            machine: harness.Machine, work: str) -> Ladder:
    """Deploy, ingest, climb the ladders."""
    lad = Ladder(tracer, machine)
    deployment = harness.Deployment(workload, os.path.join(work, "ladder"))
    try:
        _climb(lad, deployment, workload, corpus, work)
    finally:
        deployment.tear_down()
    return lad


def _climb(lad: Ladder, deployment, workload, corpus, work: str) -> None:
    """Reads first, on the store as the loader left it; then the rungs
    that are pure functions of its records; last the ones that write."""
    datastore = deployment.datastore
    n_events = corpus.events
    options = harness.make_workflow(deployment).pep_options
    cut = nue_candidate_cut

    # -- the write ladder's top rung: the loader over the files ------------
    loader = DataLoader(datastore, DATASET)
    files = list(zip(corpus.paths, corpus.file_events))
    one_file = dict(size=1, per=lambda part: part[0][1])
    lad.rung("loader.ingest", files,
             lambda part: loader.ingest([part[0][0]]), **one_file)
    lad.rung("hdf5lite.read", files,
             lambda part: sum(1 for _ in iter_file_events(part[0][0])),
             **one_file)
    deployment.quiesce()

    dataset = datastore[DATASET]
    slices_type = vector_of(registered_type(harness.SLICE_CLASS))
    header_type = vector_of(registered_type(HEADER_CLASS))
    slices_suffix = b"#" + slices_type.name.encode()
    header_suffix = b"#" + header_type.name.encode()
    fields = sorted(set(cut.columns) | {"slice_id"})
    handles = [harness.event_handle(dataset, t) for t in corpus.triples]
    event_keys = [h.key for h in handles]
    few = event_keys[:8 * POINT_BLOCK]
    subruns = sorted({h.subrun for h in handles}, key=lambda s: s.key)

    def events_in(part):
        return sum(len(corpus.subrun_events[s.run.number, s.number])
                   for s in part)

    # -- the data plane alone: passes with a no-op callback ----------------
    rank_stats: list = []

    def noop_body(comm):
        pep = ParallelEventProcessor(
            datastore, comm=comm, options=options,
            products=[(slices_type, "")],
            columns=fields if workload.columnar else None)
        if workload.columnar:
            return pep.process_batches(dataset, lambda batch: None)
        return pep.process(dataset, lambda event: None)

    lad.repeated("pep.noop",
                 lambda: rank_stats.append(mpirun(noop_body, SELECT_RANKS)),
                 repeats=6, items=n_events)
    lad.put("pep.noop_events_per_s", 1.0 / lad.times["pep.noop"], "1/s")
    last = rank_stats[-1]       # the program's own timers, of the last pass
    for part in ("load", "processing", "waiting"):
        lad.put(f"pep.{part}_s", sum(getattr(s, f"{part}_seconds")
                                     for s in last) / lad.slowdown, "s")

    # -- datastore reads; load_packed also yields the decoded products
    # the write rungs store again ------------------------------------------
    slices, headers = [], []

    def load_packed(part):
        out = datastore.load_products_packed(
            part, [(slices_type, ""), (header_type, "")])
        slices.extend(out[slices_type.name, ""])
        headers.extend(out[header_type.name, ""])

    lad.rung("datastore.load_packed", event_keys, load_packed)
    lad.rung("datastore.list_events", subruns,
             lambda part: [sum(1 for _ in s.events()) for s in part], size=4,
             per=events_in)
    # New clients: the first one's caches would answer for the service.
    with deployment.connect() as client:
        for rung in ("datastore.load_columnar",        # from the service
                     "datastore.load_columnar_warm"):  # from the column cache
            lad.rung(rung, event_keys,
                     lambda part: client.datastore.load_products_columnar(
                         part, slices_type, fields))
    with deployment.connect() as client:
        reader = client[DATASET]
        lad.rung("datastore.load_single",
                 [harness.event_handle(reader, t)
                  for t in corpus.triples[:len(few)]],
                 lambda part: [e.load(slices_type) for e in part],
                 size=POINT_BLOCK)

    # -- yokan read verbs over the fabric, one call per database like
    # the datastore's fan-out ----------------------------------------------
    target_of = {key: datastore.placement.product_database_for(key)
                 for key in event_keys}

    def per_database(part, call):
        groups: dict = {}
        for key in part:
            groups.setdefault(target_of[key], []).append(key)
        for target, keys in groups.items():
            call(datastore.handle_for_target(target), keys)

    lad.rung("yokan.load_prefix_packed", event_keys,
             lambda part: per_database(
                 part, lambda db, keys: db.load_prefix_packed(keys)))
    lad.rung("yokan.scan_columns", event_keys, lambda part: per_database(
        part, lambda db, keys: db.scan_columns(keys, slices_suffix, fields)))
    lad.rung("yokan.get", few, lambda part: per_database(
        part, lambda db, keys: [db.get(k + slices_suffix) for k in keys]),
        size=POINT_BLOCK)
    lad.rung("mercury.null_rpc", few, lambda part: per_database(
        part, lambda db, keys: [db.exists(k + b"?") for k in keys]),
        size=POINT_BLOCK)
    lad.rung("yokan.list_keys", subruns,
             lambda part: [datastore.handle_for_target(
                 datastore.target_for("events", s.key)).list_keys(s.key)
                 for s in part], size=4, per=events_in)

    # -- serial ------------------------------------------------------------
    products = list(zip(slices, headers))
    values: list = []
    lad.rung("serial.encode", products,
             lambda part: values.extend((dumps(s), dumps(h))
                                        for s, h in part))
    lad.rung("serial.decode", values,
             lambda part: [(loads(s), loads(h)) for s, h in part])
    lad.rung("serial.decode_one", values,
             lambda part: [loads(s) for s, _h in part])
    tables: list = []
    lad.rung("serial.columnar_encode", values,
             lambda part: tables.extend(columnar.value_to_table(s)[2]
                                        for s, _h in part))
    blocks = [
        [columnar.pack_field_column(part, f)
         + (sum(len(t["slice_id"]) for t in part),) for f in fields]
        for part in chunked(tables)]
    lad.rung("serial.columnar_decode", blocks,
             lambda part: [columnar.column_from_block(*b) for b in part[0]],
             size=1, per=lambda part: CHUNK)

    # -- what a write batch sends for one event: its two product pairs ----
    pairs = {key: [(key + slices_suffix, s), (key + header_suffix, h)]
             for key, (s, h) in zip(event_keys, values)}
    user_bytes = sum(len(k) + len(v) for e in pairs.values() for k, v in e)
    lad.put("serial.encode_bytes_per_event",
            sum(len(s) + len(h) for s, h in values) / n_events, "B")

    def flat(part):
        return [pair for key in part for pair in pairs[key]]

    # -- wire and packed, on those payloads --------------------------------
    def seal_unseal(part):
        for key in part:
            product_key, value = pairs[key][0]
            wire.unseal(wire.seal(dumps(("products-0", product_key))))
            wire.unseal(wire.seal(dumps(("ok", value))))

    lad.rung("wire.seal_unseal", event_keys, seal_unseal)
    sealed = [wire.seal(dumps(("products-0", pairs[key][0][0])))
              for key in event_keys]
    lad.rung("wire.tenant_wrap", sealed,
             lambda part: [wire.unwrap_tenant(wire.wrap_tenant(
                 s, "bench", wire.PRIORITY_INTERACTIVE)) for s in part])
    buffers: list = []
    lad.rung("packed.pack", event_keys,
             lambda part: buffers.append(
                 (packed.pack_groups([pairs[k] for k in part]), len(part))))
    lad.rung("packed.unpack", buffers,
             lambda part: packed.unpack_groups(*part[0]),
             size=1, per=lambda part: part[0][1])
    crc = lad.rung("wire.crc", buffers,
                   lambda part: wire.checksum(part[0][0]),
                   size=1, per=lambda part: len(part[0][0]))
    lad.put("wire.crc_mb_per_s", 1e-6 / crc, "MB/s")

    # -- the backend, called directly, no RPC ------------------------------
    def scratch_backend(tag: str, logged: bool):
        config = dict(workload.backend_config)
        if workload.backend != "map":
            config["path"] = os.path.join(work, f"backend-{tag}", "db")
        if logged:
            config["wal_path"] = os.path.join(work, f"backend-{tag}", "db.wal")
        return open_backend(workload.backend, **config)

    bare = scratch_backend("bare", logged=False)
    logged = scratch_backend("logged", logged=True)
    containers = scratch_backend("containers", logged=workload.durable)
    served = logged if workload.durable else bare
    try:
        bare_put = lad.rung("backend.put_multi.bare", event_keys,
                            lambda part: bare.put_multi(flat(part)))
        logged_put = lad.rung("backend.put_multi.logged", event_keys,
                              lambda part: logged.put_multi(flat(part)))
        lad.times["backend.put_multi"] = (logged_put if workload.durable
                                          else bare_put)
        lad.put("wal.append_us_per_record",
                US * max(0.0, logged_put - bare_put) * n_events
                / logged.stats.wal_records, "us")
        lad.put("wal.bytes_per_user_byte",
                logged.stats.wal_bytes / user_bytes, "ratio")
        lad.rung("backend.get", event_keys,
                 lambda part: [served.get(k + slices_suffix) for k in part])
        lad.rung("backend.scan_prefix", event_keys,
                 lambda part: [list(served.scan_prefix(k)) for k in part])
        containers.put_multi([(key, b"") for key in event_keys])
        lad.rung("backend.list_keys", subruns,
                 lambda part: [containers.list_keys(s.key) for s in part],
                 size=4, per=events_in)
    finally:
        bare.close()
        logged.close()
        containers.close()

    # -- user compute and the reduction ------------------------------------
    lad.rung("nova.cut_rowwise", slices,
             lambda part: [[s.slice_id for s in event if cut(s)]
                           for event in part])
    # one table per dispatch batch, as the columnar handler gets them
    rows = [r for path in corpus.paths for _t, r in iter_file_events(path)]
    batches = [({f: np.concatenate([r[f] for r in part]) for f in fields},
                len(part))
               for part in chunked(rows, options.dispatch_batch_size)]
    lad.rung("nova.cut_mask", batches,
             lambda part: [t["slice_id"][cut.mask(t)] for t, _n in part],
             size=4, per=lambda part: sum(n for _t, n in part))
    accepted = sorted(corpus.accepted_ids)
    reduce_s: list = []

    def reduce_body(comm):
        mine = accepted[comm.rank::comm.size]
        for _ in range(8):
            comm.barrier()
            t0 = now()
            comm.reduce(mine, op=SUM, root=0)
            if comm.rank == 0:
                reduce_s.append(now() - t0)

    lad.repeated("minimpi.reduce",
                 lambda: mpirun(reduce_body, SELECT_RANKS), repeats=1, items=1)
    reduce_one = stats.lower_quartile(reduce_s) / lad.slowdown
    lad.times["minimpi.reduce"] = reduce_one / n_events
    lad.put("minimpi.reduce_ms", 1e3 * reduce_one, "ms")

    # -- the broker, called directly ---------------------------------------
    broker = RequestBroker.from_config(
        workload.tenants or {"slots": 8, "interactive_reserve": 2})
    meta = wire.TenantEnvelope("bench", wire.PRIORITY_INTERACTIVE, "")

    def admit_finish(part):
        for _ in part:
            admission = broker.admit(meta, "yokan.get", 128)
            broker.finish(admission, 512, broker.begin(admission))

    lad.rung("broker.admit_finish", list(range(16 * POINT_BLOCK)),
             admit_finish, size=POINT_BLOCK)

    # -- the file-based workflow on the same files -------------------------
    reference: list = []
    lad.repeated("workflows.files",
                 lambda: reference.append(
                     TraditionalWorkflow(corpus.file_list).run(
                         num_processes=SELECT_RANKS)),
                 repeats=5, items=n_events)
    lad.put("workflows.files_events_per_s",
            1.0 / lad.times["workflows.files"], "1/s")
    lad.put("workflows.accepted_ids", len(reference[-1].accepted_ids),
            "count")

    # -- the rungs that write, last: they grow the store -------------------
    writer = [harness.event_handle(dataset, t)
              for t in corpus.triples[:len(few)]]
    lad.rung("datastore.store_single", writer,
             lambda part: [e.store([1.0] * 16, label="u0") for e in part],
             size=POINT_BLOCK)
    lad.rung("yokan.put_one", few, lambda part: per_database(
        part, lambda db, keys: [db.put(k + b"u1#probe", b"x" * 160)
                                for k in keys]), size=POINT_BLOCK)
    lad.rung("yokan.put_multi", event_keys, lambda part: per_database(
        part, lambda db, keys: db.put_multi(flat(keys))))
    scratch = datastore.create_dataset("bench/write-batch")
    flushes = []

    def store_flush(part):
        with WriteBatch(datastore) as batch:
            for (run, subrun, event), (s, h) in part:
                handle = (scratch.run(run).subrun(subrun)
                          .create_event(event, batch=batch))
                handle.store(s, type_name=slices_type, batch=batch)
                handle.store(h, type_name=header_type, batch=batch)
        flushes.append(batch.flushes)

    lad.rung("write_batch.store_flush", list(zip(corpus.triples, products)),
             store_flush)
    lad.put("write_batch.flushes", sum(flushes), "count")

    # -- what losing the servers' state costs here: a log replay where
    # the deployment is durable, empty servers where it is not -------------
    restart_s: list = []
    lad.repeated("bedrock.restart",
                 lambda: restart_s.append(deployment.crash_and_restart()),
                 repeats=1, items=1)
    lad.put("bedrock.restart_ms", 1e3 * restart_s[0] / lad.slowdown, "ms")
    replayed = [server.durability_stats() for server in deployment.servers]
    lad.put("wal.replay_s",
            sum(d["replay_seconds"] for d in replayed) / lad.slowdown, "s")
    lad.put("wal.replayed_records",
            sum(d["replayed_records"] for d in replayed), "count")


#: layer metric -> the rung it reports, in microseconds per item
RUNG_METRICS = {
    "hdf5lite.read_us_per_event": "hdf5lite.read",
    "serial.encode_us_per_event": "serial.encode",
    "serial.decode_us_per_event": "serial.decode",
    "serial.columnar_encode_us_per_event": "serial.columnar_encode",
    "serial.columnar_decode_us_per_event": "serial.columnar_decode",
    "wire.seal_unseal_us_per_rpc": "wire.seal_unseal",
    "wire.tenant_wrap_us_per_rpc": "wire.tenant_wrap",
    "packed.pack_us_per_event": "packed.pack",
    "packed.unpack_us_per_event": "packed.unpack",
    "backend.put_multi_us_per_event": "backend.put_multi",
    "backend.get_us_per_key": "backend.get",
    "backend.scan_prefix_us_per_event": "backend.scan_prefix",
    "yokan.put_multi_us_per_event": "yokan.put_multi",
    "yokan.get_us": "yokan.get",
    "yokan.load_prefix_packed_us_per_event": "yokan.load_prefix_packed",
    "yokan.scan_columns_us_per_event": "yokan.scan_columns",
    "mercury.null_rpc_us": "mercury.null_rpc",
    "broker.admit_finish_us": "broker.admit_finish",
    "write_batch.store_flush_us_per_event": "write_batch.store_flush",
    "loader.ingest_us_per_event": "loader.ingest",
    "datastore.load_packed_us_per_event": "datastore.load_packed",
    "datastore.load_columnar_us_per_event": "datastore.load_columnar",
    "datastore.load_columnar_warm_us_per_event": "datastore.load_columnar_warm",
    "datastore.load_single_us": "datastore.load_single",
    "datastore.store_single_us": "datastore.store_single",
    "datastore.list_events_us_per_event": "datastore.list_events",
    "nova.cut_rowwise_us_per_event": "nova.cut_rowwise",
    "nova.cut_mask_us_per_event": "nova.cut_mask",
}
#: layer metrics that also report their rung's self time as ``<name>_self``
SELF_METRICS = (
    "yokan.put_multi_us_per_event", "yokan.get_us",
    "yokan.load_prefix_packed_us_per_event",
    "yokan.scan_columns_us_per_event", "write_batch.store_flush_us_per_event",
    "datastore.load_packed_us_per_event",
    "datastore.load_columnar_us_per_event", "datastore.load_single_us",
    "datastore.store_single_us", "datastore.list_events_us_per_event",
)
#: layer metrics read from the round's counts: name -> (sample, unit)
COUNT_METRICS = {
    **{f"lsm.{k}": (f"lsm.{k}", unit) for k, unit in (
        ("flushes", "count"), ("compactions", "count"), ("flush_s", "s"),
        ("compaction_s", "s"), ("write_amp", "ratio"), ("read_amp", "ratio"),
        ("block_cache_hit_rate", "ratio"), ("throttle_waits", "count"),
        ("backpressure_waits", "count"), ("worker_errors", "count"))},
    "wal.checkpoints": ("wal.checkpoints", "count"),
    "broker.admitted": ("broker.admitted", "count"),
    "broker.shed": ("broker.shed", "count"),
    "product_cache.hit_rate": ("product_cache.hit_rate", "ratio"),
    "product_cache.evictions": ("product_cache.evictions", "count"),
    "column_cache.hit_rate": ("column_cache.hit_rate", "ratio"),
}


def span_overhead_pct(tracer: harness.Tracer) -> float:
    """What the benchmark-side spans cost the traced round: its span
    count times the cost of one span (timed here on an empty one), as a
    share of the round.  Comparing the traced round's phases with the
    untraced rounds' instead would, with these few coarse spans,
    measure only the machine's drift between rounds."""
    probe = harness.Tracer(enabled=True)
    t0 = now()
    for _ in range(2000):
        with probe.span("probe"):
            pass
    per_span = (now() - t0) / 2000
    traced = [s for s in tracer.spans if s["name"] == "round"]
    spans = sum(1 for s in tracer.spans if s["round"] == traced[-1]["round"])
    return 100.0 * spans * per_span / (traced[-1]["end"] - traced[-1]["start"])


def finish(lad: Ladder, workload, rec: harness.Recorder, corpus,
           tracer: harness.Tracer, end_to_end: dict) -> dict:
    """Every per-layer metric of the traced run: the ladder's rungs and
    self times, the counts of its last (traced) round, the splits of
    stand-up and restart, and the run's own health."""
    t = lad.times
    q1 = stats.lower_quartile
    n_events = corpus.events

    for metric, rung in RUNG_METRICS.items():
        lad.put(metric, US * t[rung], "us")
    for metric in SELF_METRICS:
        lad.put(metric + "_self",
                US * self_time(CALLS, t, RUNG_METRICS[metric]), "us")
    # list_keys is reported per page (one subrun's events) like the RPC
    events_per_page = n_events / len(corpus.subrun_events)
    for suffix, seconds in (("", t["yokan.list_keys"]),
                            ("_self", self_time(CALLS, t, "yokan.list_keys"))):
        lad.put(f"yokan.list_keys_us_per_page{suffix}",
                US * seconds * events_per_page, "us")
    lad.put("loader.self_us_per_event",
            US * self_time(CALLS, t, "loader.ingest"), "us")

    # The ladders close against the same phases of this run's rounds.
    t["workflows.ingest"] = q1(rec.samples["ingest_s_per_event"])
    t["workflows.select"] = q1(rec.samples["steady_select_s"]) / n_events
    calls = {**CALLS, **LANE_CALLS[workload.columnar]}
    lad.put("ladder.closure_pct.write",
            closure_pct(calls, t, "workflows.ingest"), "%")
    lad.put("ladder.closure_pct.read",
            closure_pct(calls, t, "workflows.select"), "%")

    for metric, (sample, unit) in COUNT_METRICS.items():
        lad.put(metric, rec.samples[sample][-1], unit)
    per_kevent = 1000.0 / n_events
    lad.put("mercury.rpcs_per_kevent.ingest",
            rec.samples["mercury.rpcs.ingest"][-1] * per_kevent, "count")
    lad.put("mercury.rpcs_per_kevent.select",
            rec.samples["mercury.rpcs.select"][-1] * per_kevent, "count")
    lad.put("mercury.rpc_bytes_per_event.ingest",
            rec.samples["mercury.rpc_bytes.ingest"][-1] / n_events, "B")
    lad.put("mercury.bulk_bytes_per_event.select",
            rec.samples["mercury.bulk_bytes.select"][-1] / n_events, "B")
    for part in ("deploy", "connect", "shutdown"):
        lad.put(f"bedrock.{part}_ms",
                1e3 * q1(rec.samples[f"bedrock.{part}_s"]), "ms")

    # Too noisy on a shared machine (tails) or always 0 (failures) to
    # gate on, so the traced run reports them with the layers.
    for name in ("load_p99_us", "store_p99_us", "failed_op_share"):
        lad.metrics[name] = end_to_end[name]

    select = end_to_end["select_events_per_s"]["value"]
    lad.put("workflows.speedup_vs_files",
            select / lad.metrics["workflows.files_events_per_s"]["value"],
            "ratio")
    lad.put("trace.overhead_pct", span_overhead_pct(tracer), "%")
    lad.put("machine.calib_ms",
            1e3 * statistics.median(rec.machine.kernel_s), "ms")
    return lad.metrics
