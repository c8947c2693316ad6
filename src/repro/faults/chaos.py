"""The chaos harness: one stage, one scenario table, one verdict.

A :class:`ChaosStage` is everything a fault scenario repeats -- corpus,
deployment, client, workflow, a ``faults(schedule)`` block, a
``live_grow()`` block and a ``close()`` that gives every thread,
descriptor and directory back.  :data:`FAMILIES` is the table of what is
run on it: each :class:`Scenario` row is a name, its layout overrides
and a body of a few lines written against the stage.

:func:`run_chaos` runs a family's quiet baseline once, then each row,
and judges every row by the same rule: every selection made on the
row's stage serializes to the baseline's bytes, no scheduled action was
left unfired, and the row's own expectation (if it has one) holds.  That
equality is the whole point of the robustness stack: retries, checksums,
WAL replay, failover and dual-read must make injected faults *invisible*
in the physics result, visible only in the counters.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import time
from contextlib import AbstractContextManager, contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import repro.hepnos as hepnos
from repro.bedrock import BedrockServer, default_hepnos_config
from repro.errors import HEPnOSError
from repro.faults.retry import RetryPolicy
from repro.faults.schedule import FaultSchedule
from repro.hepnos import PEPOptions, connection_from_servers
from repro.hepnos.failover import enable_replication
from repro.mercury import Fabric
from repro.mercury.fabric import FaultModel
from repro.nova import GeneratorConfig, generate_file_set
from repro.serial import dumps
from repro.workflows import HEPnOSWorkflow

#: The small two-database-per-kind layout every scenario starts from.
LAYOUT = dict(num_providers=2, event_databases=2, product_databases=2,
              run_databases=1, subrun_databases=1)
#: A genuine single shard: one provider, one database per kind.
SINGLE_SHARD = dict(num_providers=1, event_databases=1, product_databases=1)
#: Small batches so even a 48-event corpus crosses several load rounds.
PEP_OPTIONS = PEPOptions(input_batch_size=64, dispatch_batch_size=8)
#: client-side recovery counters reported in a scenario's detail
CLIENT_COUNTERS = {"failovers_activated": "hepnos.failover.activated",
                   "resynced_keys": "hepnos.failover.resynced_keys",
                   "stale_retries": "hepnos.shard.stale_retries"}


def chaos_client_policy() -> RetryPolicy:
    """A retry policy sized for the injected crash/restart window.

    Schedule actions fire on fabric *op counts* and every retry attempt
    is itself an op, so a client alone always drives the op counter
    across the crash window -- provided its attempt budget exceeds the
    window length.  Fifty attempts with 1-20 ms backoff covers the
    default window several times over; the 20 ms per-call timeout turns
    injected latency spikes into retryable timeouts.
    """
    return RetryPolicy(max_attempts=50, base_delay=0.001, max_delay=0.02,
                       deadline=120.0, rpc_timeout=0.02)


def failover_client_policy() -> RetryPolicy:
    """A retry policy that gives up fast against a dead address.

    Replica failover only engages once the per-call retry budget is
    exhausted (the giveup carries the failed target).  Against a
    crashed server every attempt fails immediately with an
    ``AddressError``, so a small budget promotes the backup within a
    few milliseconds instead of burning the full chaos budget first.
    """
    return RetryPolicy(max_attempts=4, base_delay=0.001, max_delay=0.005,
                       deadline=2.0, rpc_timeout=0.02)


def build_schedule(seed: int, servers, drop: float, delay: float,
                   corrupt: float, crash_window: Optional[Tuple[int, int]],
                   spike_window: Optional[Tuple[int, int]]) -> FaultSchedule:
    """The stock chaos schedule, fully determined by ``seed``."""
    schedule = FaultSchedule(seed)
    if drop > 0:
        schedule.drop(drop)
    if delay > 0:
        schedule.delay(delay, jitter=0.5)
    if corrupt > 0:
        schedule.corruption(corrupt)
    if spike_window is not None:
        # A latency spike far above the client's rpc_timeout: every call
        # in the window times out and is retried (each retry advances
        # the op counter, so the window always drains).  The window must
        # span several request/response pairs: a delayed *request* send
        # sleeps on the caller's thread before its wait starts, so only
        # a delayed *response* produces an observable timeout -- and the
        # concurrent shard fan-out can issue several requests
        # back-to-back within a narrow window.
        start, end = spike_window
        schedule.delay(0.05, start=start, end=end)
    if crash_window is not None and len(servers) > 1:
        crash_at, restart_at = crash_window
        schedule.crash_restart(servers[1], crash_at, restart_at)
    return schedule


def selection_bytes(result) -> bytes:
    """Canonical serialized selection: byte-identity is the verdict."""
    return dumps(sorted(result.accepted_ids))


class ChaosStage(AbstractContextManager):
    """One corpus, deployment, client and workflow, given back by
    :meth:`close` (which leaving the ``with`` block calls).

    ``paths`` is the corpus; without it one is generated under the
    workdir.  ``layout`` overrides :data:`LAYOUT` in every server's
    :func:`~repro.bedrock.default_hepnos_config`; ``durability_root`` /
    ``storage_root`` there are names under the workdir and get a
    per-node subdirectory, and ``replication`` wires the replica links.
    Remaining keywords (``tenant``, ``priority``, ``product_cache`` ...)
    go to :func:`repro.hepnos.connect`.  A workdir the stage made itself
    is removed on close; a caller's is left alone, except that each
    server empties its own state directory before it starts (generated
    input files are reused).
    """

    def __init__(self, paths: Optional[Sequence[str]] = None, *,
                 files: int = 2, mean_events_per_file: int = 24,
                 signal_fraction: float = 0.05, ranks: int = 2,
                 workdir: Optional[str] = None,
                 layout: Optional[dict] = None, num_servers: int = 2,
                 retry_policy: Optional[RetryPolicy] = None,
                 pep_options: PEPOptions = PEP_OPTIONS, **connect):
        self._owns_workdir = workdir is None
        self.workdir = workdir or tempfile.mkdtemp(prefix="hepnos-chaos-")
        if paths is None:
            paths = generate_file_set(
                f"{self.workdir}/files", num_files=files,
                mean_events_per_file=mean_events_per_file,
                config=GeneratorConfig(signal_fraction=signal_fraction,
                                       events_per_subrun=16,
                                       subruns_per_run=4),
            ).paths
        self.paths = list(paths)
        self.ranks = ranks
        self.layout = {**LAYOUT, **(layout or {})}
        self.fabric = Fabric(threaded=True)
        self.servers: list[BedrockServer] = []
        for i in range(num_servers):
            self.add_server(f"node{i}")
        self.fabric.runtime.start()
        replication = self.layout.get("replication")
        self.session = hepnos.connect(
            enable_replication(self.servers, replication=replication)
            if replication else connection_from_servers(self.servers),
            fabric=self.fabric, retry_policy=retry_policy, **connect)
        self.datastore = self.session.datastore
        self.workflow = HEPnOSWorkflow(self.datastore, "nova/chaos",
                                       pep_options=pep_options)
        #: every selection made on this stage, in order
        self.results: list = []
        #: fabric / client / schedule counters of the last faults() block
        self.injected: dict = {}
        self.pending_actions: list = []
        #: :class:`~repro.rescale.MigrationStats` of the last live_grow()
        self.migration = None

    def add_server(self, node: str, **overrides) -> BedrockServer:
        """Deploy one more server of this stage's layout at ``node``."""
        config = {**self.layout, **overrides}
        for root in ("durability_root", "storage_root"):
            if config.get(root):
                config[root] = f"{self.workdir}/{config[root]}/{node}"
                # A caller's workdir may hold an earlier run's logs and
                # SSTables: a new server must not open on them.
                shutil.rmtree(config[root], ignore_errors=True)
        server = BedrockServer(self.fabric, default_hepnos_config(
            f"sm://{node}/hepnos", **config))
        self.servers.append(server)
        return server

    def ingest(self):
        return self.workflow.ingest(self.paths, num_ranks=1)

    def select(self):
        result = self.workflow.select(num_ranks=self.ranks)
        self.results.append(result)
        return result

    @contextmanager
    def faults(self, schedule: FaultSchedule):
        """Install ``schedule`` for the block; always uninstall it and
        record what it injected and what it never got to fire."""
        self.fabric.stats.reset()
        self.fabric.fault_model = schedule
        try:
            yield schedule
        finally:
            self.fabric.fault_model = FaultModel()
            stats, metrics = self.fabric.stats, self.datastore.metrics
            self.injected = dict(
                dropped=stats.dropped, corrupted=stats.corrupted,
                delayed=stats.delayed, timeouts=stats.timeouts,
                client_retries=metrics.counter("yokan.client.retries").value,
                client_giveups=metrics.counter("yokan.client.giveups").value,
                schedule_ops=schedule.ops,
                schedule_counts=dict(schedule.counts),
                schedule_log=list(schedule.log),
            )
            self.pending_actions = schedule.pending_actions

    @contextmanager
    def live_grow(self, **overrides):
        """A server joins and a :class:`~repro.rescale.LiveRescaler`
        migrates onto it from a concurrent thread while the block runs.
        ``overrides`` change the joining server's layout."""
        from repro.rescale import LiveRescaler, add_server

        joining = self.add_server("joining", **overrides)
        rescaler = LiveRescaler(
            self.datastore, add_server(self.datastore.connection, joining),
            batch_size=16)
        errors: list[BaseException] = []

        def migrate() -> None:
            try:
                rescaler.begin()
                while rescaler.step():
                    # Let selection traffic interleave with handoff.
                    time.sleep(0.002)
                self.migration = rescaler.commit()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        thread = threading.Thread(target=migrate, daemon=True,
                                  name="live-rescaler")
        thread.start()
        try:
            yield rescaler
        finally:
            thread.join(timeout=120.0)
        if thread.is_alive():
            # A wedged migration (e.g. blocked on a crashed provider)
            # must be a failure, not a silently accepted run over a
            # half-migrated store.
            raise HEPnOSError(
                "live-rescaler thread still running after 120s join; "
                "aborting instead of reporting parity against a "
                "half-migrated store")
        if errors:
            raise errors[0]

    def detail(self) -> dict:
        """What recovery, migration and admission did: the servers'
        durability, storage-engine and broker counters plus the client's
        failover and rescale ones, zeros pruned."""
        out: dict = {}
        broker: dict = {}
        for server in self.servers:
            for key, value in server.durability_stats().items():
                out[key] = out.get(key, 0) + value
            for stats in server.storage_stats().values():
                out["compactions"] = (out.get("compactions", 0)
                                      + stats["compactions"])
            counters = server.tenant_stats().get("tenants", {}).get(
                self.session.tenant, {})
            for key, value in counters.items():
                if isinstance(value, (int, float)):
                    broker[key] = broker.get(key, 0) + value
        out["replay_seconds"] = round(out.get("replay_seconds", 0.0), 4)
        for key, counter in CLIENT_COUNTERS.items():
            out[key] = self.datastore.metrics.counter(counter).value
        out["broker"] = broker
        if self.migration is not None:
            out["final_epoch"] = self.datastore.placement.epoch
            out["keys_moved"] = self.migration.keys_moved
            out["moves_by_kind"] = dict(self.migration.moves_by_kind)
        return {key: value for key, value in out.items() if value}

    def close(self) -> None:
        self.session.close()
        for server in self.servers:
            server.shutdown()
        self.fabric.runtime.shutdown()
        if self._owns_workdir:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- scenario bodies ----------------------------------------------------------
# body(stage, seed, faults): ``faults`` are build_schedule's keywords.


def _quiet(stage, seed, faults):
    stage.ingest()
    stage.select()


def _select_under_faults(stage, seed, faults):
    # The schedule covers selection only: ingest is the controlled
    # setup step; the paper's failures hit the analysis phase.
    stage.ingest()
    with stage.faults(build_schedule(seed, stage.servers, **faults)):
        stage.select()


def _grow_under_faults(stage, seed, faults):
    # The crash/restart can land inside the migration window: dual-read,
    # write-forwarding and ShardMapStale retries keep the selection.
    stage.ingest()
    with stage.faults(build_schedule(seed, stage.servers, **faults)), \
            stage.live_grow():
        stage.select()


def _state_loss(stage, seed, *windows) -> FaultSchedule:
    """``(server index, crash_at, restart_at)`` kills that lose state:
    the restart starts from empty backends."""
    schedule = FaultSchedule(seed)
    for index, crash_at, restart_at in windows:
        schedule.crash_restart(stage.servers[index], crash_at, restart_at,
                               lose_state=True)
    return schedule


def _kill_mid_ingest(stage, seed, faults):
    with stage.faults(_state_loss(stage, seed, (1, 10, 40))):
        stage.ingest()
    stage.select()


def _kill_during_checkpoint(stage, seed, faults):
    stage.ingest()
    stage.servers[1].checkpoint()  # node1 recovers from its checkpoint ...
    for server in stage.servers:   # ... node0 from pure WAL replay
        server.crash(lose_state=True)
    for server in stage.servers:
        server.restart()
    stage.select()


def _failover_resync(stage, seed, faults):
    stage.ingest()
    stage.datastore.sync_service()  # drain the replica links before the kill
    stage.servers[1].crash(lose_state=True)
    stage.select()  # served by the promoted backup
    stage.servers[1].restart()
    stage.datastore.rejoin(str(stage.servers[1].address))
    stage.select()  # served by the re-synced primary


def _kill_both(stage, seed, faults):
    stage.ingest()
    # Low op indices: even a small selection crosses them, and the
    # client's retries against the dead servers advance the op counter
    # (every attempt is a fabric send), so the restarts always fire.
    with stage.faults(_state_loss(stage, seed, (0, 5, 25), (1, 15, 35))
                      ) as schedule:
        stage.select()
        # A small run can finish before the later op indices arrive; the
        # counter persists across passes, so re-selecting drives the
        # remaining kills/restarts and re-checks parity after them.
        while schedule.pending_actions and len(stage.results) < 5:
            stage.select()


def _rescale_crash(stage, seed, faults):
    stage.ingest()
    with stage.faults(_state_loss(stage, seed, (1, 30, 60))), \
            stage.live_grow():
        stage.select()


# -- the table ----------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """One row: a name, its deployment and a body run on the stage."""

    name: str
    body: Callable
    layout: dict = field(default_factory=dict)
    num_servers: int = 2
    policy: Callable[[], RetryPolicy] = chaos_client_policy
    #: keywords for :func:`repro.hepnos.connect` (the tenant identity)
    connect: dict = field(default_factory=dict)
    #: the row's own expectation on its outcome's ``detail``
    expect: Optional[Callable[[dict], bool]] = None


@dataclass(frozen=True)
class Family:
    """Scenarios judged against one quiet baseline over one corpus."""

    scenarios: Tuple[Scenario, ...]
    #: high enough that the baseline selection is never empty
    signal_fraction: float = 0.05
    #: :func:`build_schedule` defaults
    faults: dict = field(default_factory=dict)
    #: upper bounds ``quick`` puts on files / ranks / mean_events_per_file
    quick: dict = field(default_factory=dict)


WAL = dict(durability_root="wal")
STOCK_FAULTS = dict(drop=0.02, delay=0.0005, corrupt=0.01,
                    crash_window=(10, 30), spike_window=(40, 50))

FAMILIES = {
    "stock": Family(
        (Scenario("stock", _select_under_faults),),
        faults=STOCK_FAULTS),
    "rescale": Family(
        (Scenario("single-shard-quiet", _quiet, SINGLE_SHARD, num_servers=1),
         Scenario("live-grow-under-chaos", _grow_under_faults)),
        faults=dict(drop=0.01, delay=0.0003, corrupt=0.005,
                    crash_window=(30, 60), spike_window=None)),
    # Every row kills at least one server with lose_state=True; recovery
    # must come from WAL replay, a promoted backup or anti-entropy re-sync.
    "durability": Family(
        (Scenario("wal-replay-mid-write", _kill_mid_ingest, WAL),
         Scenario("kill-during-checkpoint", _kill_during_checkpoint, WAL),
         # Volatile backends: the primary dies for good mid-run.
         Scenario("failover-resync", _failover_resync, dict(replication=2),
                  policy=failover_client_policy),
         Scenario("kill-both-then-replay", _kill_both, WAL),
         Scenario("rescale-crash", _rescale_crash, WAL),
         # Tiny memtables + an aggressive trigger keep the background
         # worker flushing and compacting throughout ingest, so the kill
         # lands on a half-written SSTable with high probability;
         # recovery replays the engine's own segmented WAL and discards
         # any orphan table the manifest never published.
         Scenario("lsm-crash-mid-compaction", _kill_mid_ingest, dict(
             backend="lsm", storage_root="lsm",
             backend_config=dict(memtable_bytes=512, compaction_trigger=2,
                                 max_immutables=2,
                                 block_cache_bytes=256 * 1024)))),
        signal_fraction=0.3,
        quick=dict(files=1, ranks=1, mean_events_per_file=16)),
    # A deliberately modest rate limit: the stock schedule *and* real
    # 429-style sheds both hit the selection, so parity plus shed > 0
    # proves admission control is load-bearing yet invisible.
    "tenants": Family(
        (Scenario("metered-tenant", _select_under_faults, dict(tenants={
            "slots": 8, "interactive_reserve": 2,
            "registry": [{"id": "nova", "priority": "interactive",
                          "rate": 50.0, "burst": 5.0}]}),
            connect=dict(tenant="nova", priority="interactive"),
            expect=lambda detail: detail.get("broker", {}).get("shed", 0) > 0),
         ),
        signal_fraction=0.1, faults=STOCK_FAULTS, quick=dict(files=2)),
}


# -- the report ---------------------------------------------------------------


@dataclass
class ScenarioOutcome:
    """One scenario against the family's fault-free baseline."""

    name: str
    #: every selection on the stage was byte-identical to the baseline
    matches: bool
    #: the row's own expectation held (True when it has none)
    expected: bool
    accepted: int
    wall: float
    #: counters of the scenario's ``faults()`` block (see ChaosStage)
    injected: dict = field(default_factory=dict)
    #: :meth:`ChaosStage.detail`
    detail: dict = field(default_factory=dict)
    pending_actions: list = field(default_factory=list)
    #: the one verdict
    ok: bool = field(init=False)

    def __post_init__(self) -> None:
        self.ok = self.matches and self.expected and not self.pending_actions


@dataclass
class ChaosReport:
    """One family run: the baseline's size and every scenario's outcome."""

    family: str
    seed: int
    baseline_accepted: int
    baseline_wall: float
    scenarios: list = field(default_factory=list)
    #: every scenario's verdict held
    ok: bool = field(init=False)

    def __post_init__(self) -> None:
        self.ok = all(s.ok for s in self.scenarios)

    def __getitem__(self, name: str) -> ScenarioOutcome:
        return next(s for s in self.scenarios if s.name == name)

    def summary(self) -> str:
        lines = [
            f"{self.family} chaos (seed={self.seed}): "
            f"{'MATCH' if self.ok else 'FAIL'}",
            f"  baseline: selected={self.baseline_accepted} "
            f"wall={self.baseline_wall:.3f}s",
        ]
        for s in self.scenarios:
            lines.append(f"  [{'ok' if s.ok else 'FAIL'}] {s.name}: "
                         f"selected={s.accepted} wall={s.wall:.3f}s")
            for key, value in sorted({**s.injected, **s.detail}.items()):
                if key == "schedule_log":
                    lines.extend(f"        op {op}: {name}"
                                 for op, name in value)
                elif value:
                    lines.append(f"        {key}={value}")
            if not s.matches:
                lines.append("        SELECTION DIFFERS FROM BASELINE")
            if not s.expected:
                lines.append("        EXPECTATION NOT MET")
            if s.pending_actions:
                lines.append(f"        NEVER FIRED: {s.pending_actions}")
        return "\n".join(lines)


def run_chaos(family: str = "stock", seed: int = 0, files: int = 2,
              ranks: int = 2, mean_events_per_file: int = 24,
              quick: bool = False, workdir: Optional[str] = None,
              **faults) -> ChaosReport:
    """Run one family of :data:`FAMILIES`; ``report.ok`` is the verdict.

    The baseline and every scenario ingest the same generated file set
    into fresh in-process services.  ``faults`` override the family's
    :func:`build_schedule` keywords; ``quick`` shrinks the dataset for
    CI smoke use.
    """
    spec = FAMILIES[family]
    sizes = dict(files=files, ranks=ranks,
                 mean_events_per_file=mean_events_per_file)
    if quick:
        sizes.update({key: min(sizes[key], cap)
                      for key, cap in spec.quick.items()})
    faults = {**spec.faults, **faults}
    t0 = time.perf_counter()
    with ChaosStage(workdir=workdir, signal_fraction=spec.signal_fraction,
                    retry_policy=chaos_client_policy(), **sizes) as base:
        _quiet(base, seed, faults)
        baseline = base.results[0]
        if not baseline.accepted_ids:
            raise HEPnOSError(
                "chaos baseline selected no events; byte-parity against "
                "an empty selection is vacuous -- grow the dataset")
        baseline_wall = time.perf_counter() - t0
        want = selection_bytes(baseline)
        outcomes = []
        for row in spec.scenarios:
            t0 = time.perf_counter()
            with ChaosStage(base.paths, ranks=sizes["ranks"],
                            workdir=f"{base.workdir}/{row.name}",
                            layout=row.layout, num_servers=row.num_servers,
                            retry_policy=row.policy(), **row.connect
                            ) as stage:
                row.body(stage, seed, faults)
                detail = stage.detail()
                outcomes.append(ScenarioOutcome(
                    name=row.name,
                    matches=all(selection_bytes(result) == want
                                for result in stage.results),
                    expected=row.expect is None or row.expect(detail),
                    accepted=len(stage.results[-1].accepted_ids),
                    wall=time.perf_counter() - t0,
                    injected=stage.injected,
                    detail=detail,
                    pending_actions=stage.pending_actions,
                ))
    return ChaosReport(family, seed, len(baseline.accepted_ids),
                       baseline_wall, outcomes)


__all__ = ["ChaosReport", "ChaosStage", "FAMILIES", "Family", "LAYOUT",
           "PEP_OPTIONS", "SINGLE_SHARD", "STOCK_FAULTS", "Scenario",
           "ScenarioOutcome", "build_schedule", "chaos_client_policy",
           "failover_client_policy", "run_chaos", "selection_bytes"]
