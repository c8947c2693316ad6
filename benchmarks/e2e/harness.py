"""The round every workload runs, and the bookkeeping around it.

A round is one fresh deployment driven through every phase::

    stand up -> write (ingest the files) -> first read pass (every cache
    empty) -> steady read passes -> point phase (single operations) ->
    (durable workloads) crash(lose_state) + restart + reconnect +
    verified request -> tear down

Everything goes through the public API (``bedrock`` -> ``hepnos`` ->
``yokan`` -> ``mercury``/``margo``/``argobots`` -> ``yokan.backends``).
Every output is checked: a wrong answer, an exception or a phase past
its deadline is a *failed operation*, never a silently slow sample.
"""

from __future__ import annotations

import contextlib
import gc
import os
import shutil
import signal
import statistics
import struct
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Optional

import repro.hepnos as hepnos
from repro.bedrock import BedrockServer, default_hepnos_config
from repro.hepnos import PEPOptions, ProductCacheOptions, vector_of
from repro.mercury import Fabric
from repro.serial import registered_type
from repro.workflows import HEPnOSWorkflow

from workloads import (DATASET, PHASE_DEADLINE_S, POINT_BLOCK, SELECT_RANKS,
                       Corpus, Workload)

SERVERS = 2
#: class name the loader registers for the slice table of the files
SLICE_CLASS = "rec.slc"
#: stores verified by reading back after the point phase, per round
STORE_CHECKS = 32

now = time.perf_counter

#: seconds one run of :func:`reference_kernel` takes on the reference
#: machine (this sandbox in a calm minute).  Every timed quantity is
#: reported as the time it would have taken there; see :class:`Machine`.
REFERENCE_KERNEL_S = 1.2e-3
#: kernel runs per probe: around a phase, and between the small units
#: (a block of point operations, an empty stand-up) of one
PHASE_PROBE, UNIT_PROBE = 8, 3


class _Record:
    __slots__ = ("number", "weight", "ids")

    def __init__(self, number, weight, ids):
        self.number, self.weight, self.ids = number, weight, ids


def reference_kernel(n: int = 1200) -> None:
    """A fixed piece of work that owes nothing to the program under test
    and spends its time like it: interpreter loops, small objects,
    dictionaries, ``struct``, byte strings, a checksum."""
    table, parts, total = {}, [], 0
    for i in range(n):
        record = _Record(i, float(i), [i, i + 1, i + 2])
        table[b"k%08d" % i] = record
        parts.append(struct.pack("<Iqd", i & 0xFFFF, i, record.weight))
        total += i * i % 7
    for key, record in table.items():
        total += record.number + len(record.ids) + len(key)
    blob = b"".join(parts)
    zlib.crc32(blob)
    for offset in range(0, len(blob), 20):
        total += struct.unpack_from("<Iqd", blob, offset)[1]


class Machine:
    """How fast the machine is right now, against the reference machine.

    The sandbox is a few cores of a shared host, and what else runs on
    the host slows the same code by up to 2.4x for seconds to minutes
    (measured: the same steady selection pass took 0.53 to 2.0 s within
    ten minutes, the reference kernel 1.2 to 3 ms alongside it).  No
    statistic over a run's raw samples survives that: their lower
    quartile spread 12-31 % from run to run.  So every timed unit of
    work is bracketed by two probes -- a few runs of the reference
    kernel, which the program under test cannot change -- and recorded
    as ``seconds / slowdown``, where ``slowdown`` is the probes' mean kernel
    time over :data:`REFERENCE_KERNEL_S`: the time the unit would have
    taken on the reference machine.  The same passes then spread 4-8 %.
    Raw seconds and the slowdown of every unit are kept beside it.
    """

    def __init__(self):
        self._last = (0.0, -1.0)     # (kernel seconds, when) of last probe
        #: kernel seconds of every probe, and the slowdown of every bracket
        self.kernel_s: list = []
        self.slowdowns: list = []

    def probe(self, runs: int = PHASE_PROBE) -> float:
        """Mean seconds of ``runs`` kernel runs, now -- of this thread's
        processor time, so that the program's background threads (an LSM
        flush or compaction still running) do not read as a slow machine.

        The collector is off for the kernel's own allocations (and only
        for them): they would otherwise now and then trigger a full
        collection of the program's heap inside the probe, which then
        read 3x slow after the same file of every round.
        """
        gc.disable()
        try:
            t0 = time.thread_time()
            for _ in range(runs):
                reference_kernel()
            seconds = (time.thread_time() - t0) / runs
        finally:
            gc.enable()
        self._last = (seconds, now())
        self.kernel_s.append(self._last[0])
        return self._last[0]

    def before(self, runs: int = PHASE_PROBE) -> float:
        """A probe to open a bracket with: the one that closed the
        previous bracket if it ended this very millisecond."""
        seconds, when = self._last
        return seconds if now() - when < 1e-3 else self.probe(runs)

    def slowdown(self, before: float, after: float) -> float:
        """How much slower than the reference machine the machine ran
        between two probes (2 = everything takes twice as long)."""
        self.slowdowns.append((before + after) / (2.0 * REFERENCE_KERNEL_S))
        return self.slowdowns[-1]


class PhaseDeadline(Exception):
    """A phase ran past its deadline; the run cannot continue."""


class RoundAborted(Exception):
    """A phase of this round failed; skip to tear-down."""


@contextlib.contextmanager
def deadline(seconds: float, what: str):
    """Bound a phase of the main thread with a wall-clock alarm.

    A worker exception inside ``mpirun`` leaves the PEP reader waiting
    out ``mpirun``'s own 600 s timeout; the alarm interrupts the join
    instead (rank threads are daemons, so they cannot keep the process
    alive afterwards).
    """
    def on_alarm(signum, frame):
        raise PhaseDeadline(f"{what} exceeded its {seconds:g} s deadline")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Tracer:
    """Benchmark-side spans: name, start, end, parent, round id.

    Kept in memory and written out by the caller at exit.  Disabled
    (the default run) it records nothing.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: list = []
        self._stack: list = []
        self.round_id = -1

    @contextlib.contextmanager
    def span(self, name: str, **tags):
        if not self.enabled:
            yield
            return
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "round": self.round_id, "start": now(), "end": None}
        record.update(tags)
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = now()


@dataclass
class Recorder:
    """Samples of every timed quantity, and the operation ledger.

    ``samples`` is what the metrics are computed from: a timed quantity
    is there as seconds on the reference machine; ``raw`` has the
    seconds it took here.
    """

    samples: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)
    machine: Machine = field(default_factory=Machine)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def timed(self, name: str, seconds: float, slowdown: float) -> float:
        """Record a unit of work that took ``seconds`` on a machine
        ``slowdown`` times slower than the reference machine; returns
        its seconds there."""
        self.raw.setdefault(name, []).append(seconds)
        self.sample(name, seconds / slowdown)
        return seconds / slowdown

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 50:
            self.failures.append(what)

    def operation(self, what: str, fn: Callable[[], Optional[str]],
                  sample: Optional[str] = None, count: int = 1) -> float:
        """Run one checked operation under the phase deadline.

        ``fn`` returns ``None`` when its output is correct, else what
        was wrong.  With ``sample`` the operation is one timed unit: it
        runs between two probes of the machine and, when it succeeded,
        is recorded under that name; its seconds on the reference
        machine are returned.  A failure aborts the round (later phases
        would measure a broken deployment).  ``count`` is how many
        operations ``fn`` attempts.
        """
        self.attempted += count
        gc.collect()    # between phases, outside the timer; it stays on
        before = self.machine.before() if sample else 0.0
        try:
            with deadline(PHASE_DEADLINE_S, what):
                t0 = now()
                wrong = fn()
                elapsed = now() - t0
        except PhaseDeadline:
            self.fail(f"{what}: deadline")
            raise
        except Exception as exc:  # noqa: BLE001 - counted, then reported
            self.fail(f"{what}: {exc!r}")
            raise RoundAborted(what) from exc
        if wrong:
            self.fail(f"{what}: {wrong}")
            raise RoundAborted(what)
        if sample:
            return self.timed(sample, elapsed, self.machine.slowdown(
                before, self.machine.probe()))
        return elapsed


def server_roots(root: str, index: int) -> tuple[str, str]:
    """(storage root, durability root) of server ``index``.

    Each server gets its own: database names repeat across servers
    (``products-0`` exists on both), so two servers sharing one root
    silently overwrite each other's SSTables and logs.
    """
    node = os.path.join(root, f"node{index}")
    return os.path.join(node, "store"), os.path.join(node, "wal")


def server_config(workload: Workload, index: int, root: str) -> dict:
    storage_root, durability_root = server_roots(root, index)
    return default_hepnos_config(
        f"sm://node{index}/hepnos",
        num_providers=2, event_databases=2, product_databases=2,
        run_databases=1, subrun_databases=1,
        backend=workload.backend,
        backend_config=dict(workload.backend_config),
        storage_root=storage_root if workload.backend != "map" else None,
        durability_root=durability_root if workload.durable else None,
        tenants=workload.tenants,
    )


class Deployment:
    """A fresh service (fabric + servers) and one connected client."""

    def __init__(self, workload: Workload, root: str):
        self.workload = workload
        self.root = root
        t0 = now()
        self.fabric = Fabric(threaded=True)
        self.servers = [
            BedrockServer(self.fabric, server_config(workload, i, root))
            for i in range(SERVERS)
        ]
        self.fabric.runtime.start()
        t1 = now()
        self.session = self.connect()
        self.session.create_dataset(DATASET)
        t2 = now()
        self.deploy_s = t1 - t0
        self.connect_s = t2 - t1
        self.stand_up_s = t2 - t0

    def connect(self):
        """A new client session; its caches start empty, so what it
        reads was served by the service."""
        cache = None
        if self.workload.product_cache_entries is not None:
            cache = ProductCacheOptions(
                max_entries=self.workload.product_cache_entries)
        return hepnos.connect(servers=self.servers,
                              tenant=self.workload.tenant,
                              priority=self.workload.priority,
                              product_cache=cache)

    @property
    def datastore(self):
        return self.session.datastore

    def crash_and_restart(self) -> float:
        """Lose every server's state, bring them back; returns the
        seconds the servers took to restart (log replay included)."""
        for server in self.servers:
            server.crash(lose_state=True)
        t0 = now()
        for server in self.servers:
            server.restart()
        restart_s = now() - t0
        self.datastore.reconnect()
        return restart_s

    def engine_stats(self) -> list:
        """The LSM engine's stats, one dict per database that has them."""
        return [stats for server in self.servers
                for stats in server.storage_stats().values()]

    def quiesce(self, timeout: float = 20.0) -> None:
        """Wait until background flush/compaction has nothing left."""
        end = time.monotonic() + timeout
        while time.monotonic() < end:
            if not any(stats["immutables"] or stats["compaction_backlog"]
                       for stats in self.engine_stats()):
                return
            time.sleep(0.005)

    def stored_bytes(self) -> int:
        """Bytes under the servers' storage and durability roots."""
        return sum(os.path.getsize(os.path.join(dirpath, name))
                   for dirpath, _dirs, files in os.walk(self.root)
                   for name in files)

    def tear_down(self) -> float:
        t0 = now()
        self.session.close()
        for server in self.servers:
            server.shutdown()
        self.fabric.runtime.shutdown()
        return now() - t0


def remove_tree(root: str) -> None:
    """Delete a deployment's files and let the file system settle.

    The checkout's file system journals (and discards) deletions in the
    background; a round that deleted tens of megabytes of SSTables left
    the next stand-up's ``mkdir``/``open`` calls several times slower,
    and the effect carried over from one run into the next.
    """
    if os.path.isdir(root):
        shutil.rmtree(root, ignore_errors=True)
        os.sync()


def fabric_counts(deployment: Deployment, since: tuple = (0, 0, 0)) -> tuple:
    """(RPCs, eager RPC bytes, bulk bytes) the fabric carried since an
    earlier reading."""
    stats = deployment.fabric.stats
    counts = (stats.rpc_count, stats.rpc_bytes, stats.bulk_bytes)
    return tuple(a - b for a, b in zip(counts, since))


def cache_counts(deployment: Deployment) -> dict:
    metrics = deployment.datastore.metrics
    return {name: metrics.counter(f"hepnos.{name}").value
            for name in ("product_cache.hits", "product_cache.misses",
                         "product_cache.evictions",
                         "column_cache.hits", "column_cache.misses")}


def hit_rate(before: dict, after: dict, cache: str) -> float:
    hits = after[f"{cache}.hits"] - before[f"{cache}.hits"]
    misses = after[f"{cache}.misses"] - before[f"{cache}.misses"]
    return hits / (hits + misses) if hits + misses else 0.0


def record_engine_counts(deployment: Deployment, rec: Recorder) -> None:
    """LSM counters after the write and read phases have quiesced:
    counts summed over databases, ratios averaged over the databases
    the engine flushed for."""
    stats = deployment.engine_stats()
    busy = [s for s in stats if s["flushes"]]
    for name, key in (("flushes", "flushes"), ("compactions", "compactions"),
                      ("flush_s", "flush_seconds"),
                      ("compaction_s", "compaction_seconds"),
                      ("throttle_waits", "throttle_waits"),
                      ("backpressure_waits", "backpressure_waits"),
                      ("worker_errors", "worker_errors")):
        rec.sample(f"lsm.{name}", sum(s[key] for s in stats))
    for name, key in (("write_amp", "write_amplification"),
                      ("read_amp", "read_amplification"),
                      ("block_cache_hit_rate", "block_cache_hit_rate")):
        rec.sample(f"lsm.{name}",
                   sum(s[key] for s in busy) / len(busy) if busy else 0.0)


def stand_up(workload: Workload, root: str, rec: Recorder) -> Deployment:
    """A fresh deployment; its stand-up is one timed unit (``setup_s``)."""
    before = rec.machine.before()
    deployment = Deployment(workload, root)
    slowdown = rec.machine.slowdown(before, rec.machine.probe())
    deployment.stand_up_ref_s = rec.timed("setup_s", deployment.stand_up_s,
                                          slowdown)
    rec.timed("bedrock.deploy_s", deployment.deploy_s, slowdown)
    rec.timed("bedrock.connect_s", deployment.connect_s, slowdown)
    return deployment


def setup_cycle(workload: Workload, root: str, rec: Recorder) -> None:
    """One stand-up + tear-down on an empty store (a ``setup_s`` sample)."""
    rec.attempted += 1
    gc.collect()
    try:
        deployment = stand_up(workload, root, rec)
        rec.sample("bedrock.shutdown_s", deployment.tear_down())
    except Exception as exc:  # noqa: BLE001 - counted, then reported
        rec.fail(f"stand-up: {exc!r}")
    finally:
        remove_tree(root)


def make_workflow(deployment: Deployment) -> HEPnOSWorkflow:
    return HEPnOSWorkflow(
        deployment.datastore, DATASET,
        pep_options=PEPOptions(input_batch_size=1024, dispatch_batch_size=64,
                               packed_loads=True,
                               columnar_loads=deployment.workload.columnar))


def select_pass(workflow: HEPnOSWorkflow, corpus: Corpus) -> Optional[str]:
    result = workflow.select(SELECT_RANKS)
    if result.accepted_ids != corpus.accepted_ids:
        return (f"selected {len(result.accepted_ids)} slice ids, "
                f"file-based workflow selected {len(corpus.accepted_ids)}")
    if result.events_processed != corpus.events:
        return f"processed {result.events_processed} of {corpus.events} events"
    return None


def event_handle(dataset, triple):
    """The event's handle, built without an existence-check RPC."""
    run, subrun, event = triple
    return dataset.run(run).subrun(subrun).event(event)


def point_phase(deployment: Deployment, corpus: Corpus, rec: Recorder
                ) -> dict:
    """The closed-loop single-operation phase, one client thread.

    Returns the latest value written per (event, label).  The phase is
    timed in blocks of ``POINT_BLOCK`` operations, each between two
    probes of the machine; handles are built and answers checked outside
    the timers.
    """
    dataset = deployment.session[DATASET]
    slices_type = vector_of(registered_type(SLICE_CLASS))
    ops = corpus.point_ops
    events = {triple: event_handle(dataset, triple)
              for _kind, triple, _label in ops}
    #: per block: (seconds, operations, machine slowdown, latencies by kind)
    blocks: list = []
    answers, written, errors = [], {}, []
    machine = rec.machine

    def drive() -> Optional[str]:
        before = machine.probe(UNIT_PROBE)
        for start in range(0, len(ops), POINT_BLOCK):
            latencies: dict = {"load": [], "store": [], "list": []}
            block_t0 = now()
            for i in range(start, min(start + POINT_BLOCK, len(ops))):
                kind, triple, label = ops[i]
                t0 = now()
                try:
                    if kind == "load":
                        got = events[triple].load(slices_type)
                    elif kind == "store":
                        got = None
                        events[triple].store([float(i)] * 16, label=label)
                        written[triple, label] = float(i)
                    else:
                        got = [e.number
                               for e in events[triple].subrun.events()]
                except Exception as exc:  # noqa: BLE001 - counted below
                    errors.append(f"{kind} {triple}: {exc!r}")
                    continue
                latencies[kind].append(now() - t0)
                answers.append((kind, triple, got))
            seconds = now() - block_t0
            after = machine.probe(UNIT_PROBE)
            blocks.append((seconds, min(POINT_BLOCK, len(ops) - start),
                           machine.slowdown(before, after), latencies))
            before = after
        return None

    rec.operation("point phase", drive, count=len(ops))
    wrong = 0
    for kind, triple, got in answers:
        if kind == "load":
            wrong += (tuple(s.slice_id for s in got)
                      != corpus.slice_ids[triple])
        elif kind == "list":
            wrong += got != corpus.subrun_events[triple[:2]]
    with deployment.connect() as checker:
        dataset = checker[DATASET]
        for (triple, label), value in list(written.items())[-STORE_CHECKS:]:
            wrong += (event_handle(dataset, triple)
                      .load(vector_of(float), label=label) != [value] * 16)
    if errors or wrong:
        rec.fail(f"point phase: {len(errors)} errors ({errors[:3]}), "
                 f"{wrong} wrong answers", len(errors) + wrong)
        return written
    for seconds, count, slowdown, latencies in blocks:
        rec.timed("point_op_s", seconds / count, slowdown)
        for kind, values in latencies.items():
            if values:
                rec.timed(f"{kind}_p50_s", statistics.median(values),
                          slowdown)
                rec.samples.setdefault(f"{kind}_latency_s", []).extend(
                    v / slowdown for v in values)
    return written


def verify_after_restart(deployment: Deployment, corpus: Corpus,
                         written: dict) -> Optional[str]:
    """The first request a restarted durable service must answer: what
    was acknowledged before the crash (an ingested product and the
    latest point-phase store).  Asked through a new client: the old one
    would answer from its product cache."""
    triple = corpus.triples[0]
    with deployment.connect() as client:
        dataset = client[DATASET]
        got = event_handle(dataset, triple).load(
            vector_of(registered_type(SLICE_CLASS)))
        if tuple(s.slice_id for s in got) != corpus.slice_ids[triple]:
            return "ingested product changed across restart"
        (triple, label), value = next(reversed(written.items()))
        if (event_handle(dataset, triple)
                .load(vector_of(float), label=label) != [value] * 16):
            return "acknowledged store lost across restart"
    return None


def run_round(workload: Workload, corpus: Corpus, root: str, rec: Recorder,
              tracer: Tracer) -> None:
    """One round; see the module docstring for its phases.

    Besides the timed samples the round records the counts the public
    stats surfaces give (fabric, LSM engine, WAL, broker, client caches)
    as deltas around the phase they belong to.
    """
    rec.attempted += 1
    gc.collect()
    try:
        with tracer.span("bedrock.stand_up"):
            deployment = stand_up(workload, root, rec)
    except Exception as exc:  # noqa: BLE001 - counted, then reported
        rec.fail(f"stand-up: {exc!r}")
        remove_tree(root)
        return
    try:
        workflow = make_workflow(deployment)
        #: the write phase's seconds on the reference machine
        ingested = [0.0]

        def ingest() -> Optional[str]:
            # One call per file (the loader batches per file anyway):
            # each is one timed unit between two probes of the machine.
            created = 0
            before = rec.machine.before()
            for path, events in zip(corpus.paths, corpus.file_events):
                t0 = now()
                created += workflow.ingest([path], num_ranks=1).events_created
                seconds = now() - t0
                after = rec.machine.probe()
                ingested[0] += events * rec.timed(
                    "ingest_s_per_event", seconds / events,
                    rec.machine.slowdown(before, after))
                before = after
            if created != corpus.events:
                return f"ingest created {created} of {corpus.events} events"
            return None

        sent = fabric_counts(deployment)
        with tracer.span("workflows.ingest"):
            rec.operation("ingest", ingest)
        rpcs, rpc_bytes, _bulk = fabric_counts(deployment, since=sent)
        rec.sample("mercury.rpcs.ingest", rpcs)
        rec.sample("mercury.rpc_bytes.ingest", rpc_bytes)
        with tracer.span("workflows.select", which="cold"):
            cold_s = rec.operation(
                "first pass", lambda: select_pass(workflow, corpus),
                "cold_select_s")
        rec.sample("ingest_to_selection_s",
                   deployment.stand_up_ref_s + ingested[0] + cold_s)
        caches = cache_counts(deployment)
        sent = fabric_counts(deployment)
        for _ in range(workload.steady_passes):
            with tracer.span("workflows.select", which="steady"):
                rec.operation(
                    "steady pass", lambda: select_pass(workflow, corpus),
                    "steady_select_s")
        rpcs, _rpc_bytes, bulk = fabric_counts(deployment, since=sent)
        rec.sample("mercury.rpcs.select", rpcs / workload.steady_passes)
        rec.sample("mercury.bulk_bytes.select", bulk / workload.steady_passes)
        rec.sample("column_cache.hit_rate",
                   hit_rate(caches, cache_counts(deployment), "column_cache"))
        deployment.quiesce()
        if workload.durable:
            rec.sample("stored_bytes", deployment.stored_bytes())
        record_engine_counts(deployment, rec)

        caches = cache_counts(deployment)
        with tracer.span("point_phase"):
            written = point_phase(deployment, corpus, rec)
        after = cache_counts(deployment)
        rec.sample("product_cache.hit_rate",
                   hit_rate(caches, after, "product_cache"))
        rec.sample("product_cache.evictions",
                   after["product_cache.evictions"]
                   - caches["product_cache.evictions"])
        tenants = [counters for server in deployment.servers
                   for counters in
                   server.tenant_stats().get("tenants", {}).values()]
        rec.sample("broker.admitted", sum(t["admitted"] for t in tenants))
        rec.sample("broker.shed", sum(t["shed"] for t in tenants))
        rec.sample("wal.checkpoints", sum(
            server.durability_stats()["checkpoints"]
            for server in deployment.servers))

        def restart() -> Optional[str]:
            deployment.crash_and_restart()
            return verify_after_restart(deployment, corpus, written)

        if workload.durable:
            with tracer.span("bedrock.restart"):
                rec.operation("restart", restart, "restart_s")
        errors = sum(s["worker_errors"] for s in deployment.engine_stats())
        if errors:
            rec.fail(f"lsm worker errors: {errors}", errors)
    except RoundAborted:
        pass
    finally:
        try:
            with tracer.span("bedrock.shutdown"):
                rec.sample("bedrock.shutdown_s", deployment.tear_down())
        except Exception as exc:  # noqa: BLE001 - counted, then reported
            rec.fail(f"tear-down: {exc!r}")
        remove_tree(root)
        del deployment
