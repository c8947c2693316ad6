"""The chaos harness: NOvA ingest + selection under a fault schedule.

:func:`run_nova_chaos` runs the paper's candidate-selection workflow
twice over the same synthetic file set -- once fault-free, once with a
seeded :class:`~repro.faults.FaultSchedule` injecting drops, latency,
corruption, a timeout-inducing latency spike, and one provider
crash/restart mid-selection -- and verifies that the selected-event set
is identical.  That equality is the whole point of the robustness
stack: retries, checksums, and reconnection must make injected faults
*invisible* in the physics result, visible only in the counters.
"""

from __future__ import annotations

import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.bedrock import BedrockServer, default_hepnos_config
from repro.errors import HEPnOSError
from repro.faults.retry import RetryPolicy
from repro.faults.schedule import FaultSchedule
from repro.hepnos import DataStore
from repro.hepnos.parallel_event_processor import PEPStatistics
from repro.mercury import Fabric
from repro.mercury.fabric import FaultModel
from repro.nova import GeneratorConfig, generate_file_set
from repro.serial import dumps
from repro.workflows import HEPnOSWorkflow


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


@dataclass
class ChaosReport:
    """Outcome of one chaos run, compared against its fault-free twin."""

    seed: int
    matches: bool
    baseline_accepted: frozenset
    chaos_accepted: frozenset
    baseline_wall: float = 0.0
    chaos_wall: float = 0.0
    #: fabric counters from the chaos run
    dropped: int = 0
    corrupted: int = 0
    delayed: int = 0
    timeouts: int = 0
    fabric_failures: dict = field(default_factory=dict)
    #: client-side retry counters (DataStore metrics registry)
    client_retries: int = 0
    client_giveups: int = 0
    #: (op, action) entries for fired schedule actions
    schedule_log: list = field(default_factory=list)
    schedule_counts: dict = field(default_factory=dict)
    schedule_ops: int = 0
    pending_actions: list = field(default_factory=list)
    #: PEP aggregate for the chaos selection (includes load_retries)
    pep: dict = field(default_factory=dict)

    def summary(self) -> str:
        verdict = "MATCH" if self.matches else "MISMATCH"
        lines = [
            f"chaos run (seed={self.seed}): {verdict}",
            f"  selected events: baseline={len(self.baseline_accepted)} "
            f"chaos={len(self.chaos_accepted)}",
            f"  wall seconds: baseline={self.baseline_wall:.3f} "
            f"chaos={self.chaos_wall:.3f}",
            f"  injected: dropped={self.dropped} corrupted={self.corrupted} "
            f"delayed={self.delayed} timeouts={self.timeouts}",
            f"  client: retries={self.client_retries} "
            f"giveups={self.client_giveups}",
            f"  schedule: ops={self.schedule_ops} "
            f"counts={dict(self.schedule_counts)}",
        ]
        for op, name in self.schedule_log:
            lines.append(f"    op {op}: {name}")
        if self.pending_actions:
            lines.append(f"  NEVER FIRED: {self.pending_actions}")
        if self.pep:
            lines.append(
                f"  pep: load_retries={self.pep.get('load_retries', 0)} "
                f"load_failures={self.pep.get('load_failures', 0)} "
                f"subruns_skipped={self.pep.get('subruns_skipped', 0)}"
            )
        return "\n".join(lines)


def _deploy(fabric: Fabric, num_servers: int = 2, **overrides):
    config = dict(num_providers=2, event_databases=2, product_databases=2,
                  run_databases=1, subrun_databases=1)
    config.update(overrides)
    servers = [
        BedrockServer(fabric, default_hepnos_config(
            f"sm://node{i}/hepnos", **config,
        ))
        for i in range(num_servers)
    ]
    fabric.runtime.start()
    return servers


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


def run_nova_chaos(seed: int = 0, files: int = 2, ranks: int = 2,
                   mean_events_per_file: int = 24,
                   drop: float = 0.02, delay: float = 0.0005,
                   corrupt: float = 0.01,
                   crash_window: Optional[Tuple[int, int]] = (10, 30),
                   spike_window: Optional[Tuple[int, int]] = (40, 50),
                   retry_policy: Optional[RetryPolicy] = None,
                   workdir: Optional[str] = None) -> ChaosReport:
    """Run NOvA ingest+selection fault-free and under chaos; compare.

    Both runs ingest the same generated file set into fresh in-process
    services.  The fault schedule is installed only for the selection
    phase of the second run (ingest is the controlled setup step; the
    paper's failures hit the analysis phase).  Returns a
    :class:`ChaosReport`; ``report.matches`` is the verdict.
    """
    if workdir is None:
        workdir = tempfile.mkdtemp(prefix="hepnos-chaos-")
    sample = generate_file_set(
        f"{workdir}/files", num_files=files,
        mean_events_per_file=mean_events_per_file,
        config=GeneratorConfig(signal_fraction=0.05, events_per_subrun=16,
                               subruns_per_run=4),
    )
    policy = retry_policy or chaos_client_policy()

    # -- fault-free baseline ------------------------------------------------
    fabric = Fabric(threaded=True)
    servers = _deploy(fabric)
    datastore = DataStore.connect(fabric, servers, retry_policy=policy)
    workflow = HEPnOSWorkflow(datastore, "nova/chaos", input_batch_size=64,
                              dispatch_batch_size=8)
    baseline = workflow.run(sample.paths, num_ranks=ranks)
    fabric.runtime.shutdown()

    # -- chaos run ----------------------------------------------------------
    fabric = Fabric(threaded=True)
    servers = _deploy(fabric)
    datastore = DataStore.connect(fabric, servers, retry_policy=policy)
    workflow = HEPnOSWorkflow(datastore, "nova/chaos", input_batch_size=64,
                              dispatch_batch_size=8)
    workflow.ingest(sample.paths, num_ranks=1)

    schedule = build_schedule(seed, servers, drop, delay, corrupt,
                              crash_window, spike_window)
    fabric.stats.reset()
    fabric.fault_model = schedule
    try:
        chaos_result = workflow.select(num_ranks=ranks)
    finally:
        fabric.fault_model = FaultModel()
    stats = fabric.stats
    report = ChaosReport(
        seed=seed,
        matches=(frozenset(chaos_result.accepted_ids)
                 == frozenset(baseline.accepted_ids)),
        baseline_accepted=frozenset(baseline.accepted_ids),
        chaos_accepted=frozenset(chaos_result.accepted_ids),
        baseline_wall=baseline.wall_seconds,
        chaos_wall=chaos_result.wall_seconds,
        dropped=stats.dropped,
        corrupted=stats.corrupted,
        delayed=stats.delayed,
        timeouts=stats.timeouts,
        fabric_failures=dict(stats.failures),
        client_retries=datastore.metrics.counter("yokan.client.retries").value,
        client_giveups=datastore.metrics.counter("yokan.client.giveups").value,
        schedule_log=list(schedule.log),
        schedule_counts=dict(schedule.counts),
        schedule_ops=schedule.ops,
        pending_actions=schedule.pending_actions,
        pep=PEPStatistics.aggregate(chaos_result.pep_stats),
    )
    fabric.runtime.shutdown()
    return report


# -- sharding / live-rescale chaos -------------------------------------------


@dataclass
class RescaleChaosReport:
    """Selection parity across shard topologies, including a live grow.

    Three runs over identical input files: one provider group
    (single shard), the full multi-provider deployment, and the
    multi-provider deployment with a *new provider joining mid-
    selection* (a live rescale driven concurrently with the query
    traffic) under the chaos schedule.  The physics selection must be
    byte-identical across all three.
    """

    seed: int
    matches: bool
    single_shard_accepted: frozenset
    multi_shard_accepted: frozenset
    migrated_accepted: frozenset
    #: epoch observed after the live run committed (0 -> 2: one
    #: migration epoch plus its commit)
    final_epoch: int = 0
    keys_moved: int = 0
    moves_by_kind: dict = field(default_factory=dict)
    stale_retries: int = 0
    #: fabric counters from the chaos (migrated) run
    dropped: int = 0
    corrupted: int = 0
    delayed: int = 0
    timeouts: int = 0
    schedule_counts: dict = field(default_factory=dict)
    pending_actions: list = field(default_factory=list)

    def summary(self) -> str:
        verdict = "MATCH" if self.matches else "MISMATCH"
        lines = [
            f"rescale chaos (seed={self.seed}): {verdict}",
            f"  selected: single={len(self.single_shard_accepted)} "
            f"multi={len(self.multi_shard_accepted)} "
            f"migrated={len(self.migrated_accepted)}",
            f"  migration: epoch={self.final_epoch} "
            f"keys_moved={self.keys_moved} by_kind={self.moves_by_kind} "
            f"stale_retries={self.stale_retries}",
            f"  injected: dropped={self.dropped} corrupted={self.corrupted} "
            f"delayed={self.delayed} timeouts={self.timeouts}",
            f"  schedule: counts={dict(self.schedule_counts)}",
        ]
        if self.pending_actions:
            lines.append(f"  NEVER FIRED: {self.pending_actions}")
        return "\n".join(lines)


def _selection_bytes(result) -> bytes:
    """Canonical serialized selection: byte-identity is the verdict."""
    return dumps(sorted(result.accepted_ids))


def run_rescale_chaos(seed: int = 0, files: int = 2, ranks: int = 2,
                      mean_events_per_file: int = 24,
                      drop: float = 0.01, delay: float = 0.0003,
                      corrupt: float = 0.005,
                      crash_window: Optional[Tuple[int, int]] = (30, 60),
                      retry_policy: Optional[RetryPolicy] = None,
                      workdir: Optional[str] = None) -> RescaleChaosReport:
    """NOvA selection parity: 1 shard vs N shards vs N+1 mid-run.

    The third run begins a :class:`~repro.rescale.LiveRescaler` toward
    a joining server *while selection is executing* and drives
    migration steps from a concurrent thread, with the chaos schedule
    installed (including a provider crash/restart that can land inside
    the migration window).  Dual-read, write-forwarding and
    ``ShardMapStale`` retries must keep the selected-event set
    byte-identical to the quiet single-shard run.
    """
    from repro.rescale import LiveRescaler, add_server

    if workdir is None:
        workdir = tempfile.mkdtemp(prefix="hepnos-rescale-chaos-")
    sample = generate_file_set(
        f"{workdir}/files", num_files=files,
        mean_events_per_file=mean_events_per_file,
        config=GeneratorConfig(signal_fraction=0.05, events_per_subrun=16,
                               subruns_per_run=4),
    )
    policy = retry_policy or chaos_client_policy()

    def select_once(num_servers: int, live_grow: bool, with_faults: bool):
        fabric = Fabric(threaded=True)
        if num_servers == 1:
            # A genuine single shard: one provider, one database per kind.
            servers = _deploy(fabric, num_servers=1, num_providers=1,
                              event_databases=1, product_databases=1)
        else:
            servers = _deploy(fabric, num_servers=num_servers)
        datastore = DataStore.connect(fabric, servers, retry_policy=policy)
        workflow = HEPnOSWorkflow(datastore, "nova/rescale",
                                  input_batch_size=64,
                                  dispatch_batch_size=8)
        workflow.ingest(sample.paths, num_ranks=1)
        schedule = None
        migration = {"stats": None, "error": None}
        thread = None
        if with_faults:
            schedule = build_schedule(seed, servers, drop, delay, corrupt,
                                      crash_window, spike_window=None)
            fabric.stats.reset()
            fabric.fault_model = schedule
        if live_grow:
            joining = BedrockServer(fabric, default_hepnos_config(
                "sm://joining/hepnos", num_providers=2, event_databases=2,
                product_databases=2, run_databases=1, subrun_databases=1,
            ))
            rescaler = LiveRescaler(
                datastore, add_server(datastore.connection, joining),
                batch_size=16,
            )

            def migrate() -> None:
                try:
                    rescaler.begin()
                    while rescaler.step():
                        # Let selection traffic interleave with handoff.
                        time.sleep(0.002)
                    migration["stats"] = rescaler.commit()
                except BaseException as exc:  # noqa: BLE001 - reported
                    migration["error"] = exc

            thread = threading.Thread(target=migrate, daemon=True,
                                      name="live-rescaler")
            thread.start()
        try:
            result = workflow.select(num_ranks=ranks)
        finally:
            if thread is not None:
                thread.join(timeout=120.0)
            fabric.fault_model = FaultModel()
        if thread is not None and thread.is_alive():
            # A wedged migration (e.g. blocked on a crashed provider)
            # must be a test failure, not a silently accepted run over
            # a half-migrated store.
            raise HEPnOSError(
                "live-rescaler thread still running after 120s join; "
                "aborting the rescale-chaos run instead of reporting "
                "parity against a half-migrated store"
            )
        if thread is not None and migration["error"] is not None:
            raise migration["error"]
        stale = datastore.metrics.counter("hepnos.shard.stale_retries").value
        epoch = datastore.placement.epoch
        stats = fabric.stats
        fabric.runtime.shutdown()
        return result, migration["stats"], schedule, stats, stale, epoch

    single, _, _, _, _, _ = select_once(1, live_grow=False, with_faults=False)
    multi, _, _, _, _, _ = select_once(2, live_grow=False, with_faults=False)
    migrated, mstats, schedule, fstats, stale, epoch = select_once(
        2, live_grow=True, with_faults=True)

    matches = (_selection_bytes(single) == _selection_bytes(multi)
               == _selection_bytes(migrated))
    return RescaleChaosReport(
        seed=seed,
        matches=matches,
        single_shard_accepted=frozenset(single.accepted_ids),
        multi_shard_accepted=frozenset(multi.accepted_ids),
        migrated_accepted=frozenset(migrated.accepted_ids),
        final_epoch=epoch,
        keys_moved=mstats.keys_moved if mstats else 0,
        moves_by_kind=dict(mstats.moves_by_kind) if mstats else {},
        stale_retries=stale,
        dropped=fstats.dropped,
        corrupted=fstats.corrupted,
        delayed=fstats.delayed,
        timeouts=fstats.timeouts,
        schedule_counts=dict(schedule.counts) if schedule else {},
        pending_actions=schedule.pending_actions if schedule else [],
    )


# -- durability / crash-recovery chaos ---------------------------------------


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


@dataclass
class DurabilityScenario:
    """One crash-recovery scenario's outcome vs the fault-free baseline."""

    name: str
    matches: bool
    wall: float = 0.0
    detail: dict = field(default_factory=dict)
    pending_actions: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.matches and not self.pending_actions


@dataclass
class DurabilityChaosReport:
    """Selection byte-parity across crash-with-state-loss scenarios.

    Every scenario kills at least one server with ``lose_state=True``
    -- the restart starts from *empty* backends -- and recovery must
    come from WAL replay, a promoted backup, or anti-entropy re-sync.
    The verdict is byte-identity of the serialized NOvA selection
    against a fault-free run over the same generated files.
    """

    seed: int
    matches: bool
    baseline_accepted: int
    scenarios: list = field(default_factory=list)

    def summary(self) -> str:
        verdict = "MATCH" if self.matches else "MISMATCH"
        lines = [
            f"durability chaos (seed={self.seed}): {verdict}",
            f"  baseline selected events: {self.baseline_accepted}",
        ]
        for s in self.scenarios:
            mark = "ok" if s.ok else "FAIL"
            lines.append(f"  [{mark}] {s.name}: wall={s.wall:.3f}s")
            for key, value in sorted(s.detail.items()):
                if value:
                    lines.append(f"        {key}={value}")
            if s.pending_actions:
                lines.append(f"        NEVER FIRED: {s.pending_actions}")
        return "\n".join(lines)


def _durability_stats(servers) -> dict:
    """Aggregate (and prune zero) durability counters across servers."""
    total: dict = {}
    for server in servers:
        for key, value in server.durability_stats().items():
            total[key] = total.get(key, 0) + value
    total["replay_seconds"] = round(total.get("replay_seconds", 0.0), 4)
    return {k: v for k, v in total.items() if v}


def run_durability_chaos(seed: int = 0, files: int = 2, ranks: int = 2,
                         mean_events_per_file: int = 24,
                         quick: bool = False,
                         retry_policy: Optional[RetryPolicy] = None,
                         workdir: Optional[str] = None
                         ) -> DurabilityChaosReport:
    """NOvA selection parity across crash-with-state-loss scenarios.

    Six scenarios, all against the same generated file set and the
    same fault-free baseline selection:

    - ``wal-replay-mid-write``: a primary dies (state lost) in the
      middle of ingest and restarts; acknowledged writes must survive
      through WAL replay.
    - ``kill-during-checkpoint``: one server checkpoints and both then
      die with state loss; recovery mixes checkpoint load (truncated
      WAL) with pure WAL replay.
    - ``failover-resync``: volatile backends with replication 2; the
      primary dies for good mid-selection, reads fail over to the
      backup, and after a restart + :meth:`DataStore.rejoin` the
      re-synced primary serves an identical second selection pass.
    - ``kill-both-then-replay``: both WAL-backed servers die with state
      loss in staggered windows during selection and replay on restart.
    - ``rescale-crash``: a WAL-backed server dies with state loss while
      a live rescale (joining server, dual-read migration) runs
      concurrently with selection.
    - ``lsm-crash-mid-compaction``: the service runs on the LSM engine
      tuned so background flushes/compactions are continuously in
      flight, and a server dies with state loss mid-ingest; recovery
      replays the engine's segmented WAL and drops orphan tables.

    ``quick`` shrinks the dataset for CI smoke use.  The report's
    ``matches`` is True only if *every* scenario reproduced the
    baseline selection byte-for-byte.
    """
    from repro.hepnos.failover import enable_replication

    if quick:
        files, ranks = 1, 1
        mean_events_per_file = min(mean_events_per_file, 16)
    if workdir is None:
        workdir = tempfile.mkdtemp(prefix="hepnos-durability-")
    # A high signal fraction keeps the baseline selection non-empty
    # even in quick mode: byte-parity against an empty accepted set
    # would pass vacuously and prove nothing about recovery.
    sample = generate_file_set(
        f"{workdir}/files", num_files=files,
        mean_events_per_file=mean_events_per_file,
        config=GeneratorConfig(signal_fraction=0.3, events_per_subrun=16,
                               subruns_per_run=4),
    )
    policy = retry_policy or chaos_client_policy()
    layout = dict(num_providers=2, event_databases=2, product_databases=2,
                  run_databases=1, subrun_databases=1)

    def deploy(fabric, durable_root=None, replication=None):
        servers = []
        for i in range(2):
            kwargs = dict(layout)
            if durable_root is not None:
                kwargs["durability_root"] = f"{durable_root}/node{i}"
            if replication is not None:
                kwargs["replication"] = replication
            servers.append(BedrockServer(fabric, default_hepnos_config(
                f"sm://node{i}/hepnos", **kwargs)))
        fabric.runtime.start()
        return servers

    # -- fault-free baseline ------------------------------------------------
    fabric = Fabric(threaded=True)
    servers = deploy(fabric)
    datastore = DataStore.connect(fabric, servers, retry_policy=policy)
    workflow = HEPnOSWorkflow(datastore, "nova/durability",
                              input_batch_size=64, dispatch_batch_size=8)
    baseline = workflow.run(sample.paths, num_ranks=ranks)
    baseline_bytes = _selection_bytes(baseline)
    fabric.runtime.shutdown()
    if not baseline.accepted_ids:
        raise HEPnOSError(
            "durability-chaos baseline selected no events; byte-parity "
            "against an empty selection is vacuous -- grow the dataset"
        )

    scenarios: list[DurabilityScenario] = []

    def record(name, result, wall, servers, schedule=None, extra=None):
        detail = _durability_stats(servers)
        if extra:
            detail.update(extra)
        scenarios.append(DurabilityScenario(
            name=name,
            matches=(_selection_bytes(result) == baseline_bytes),
            wall=wall,
            detail=detail,
            pending_actions=(schedule.pending_actions if schedule else []),
        ))

    # -- scenario: WAL replay after a mid-ingest kill -----------------------
    fabric = Fabric(threaded=True)
    servers = deploy(fabric, durable_root=f"{workdir}/s1")
    datastore = DataStore.connect(fabric, servers, retry_policy=policy)
    workflow = HEPnOSWorkflow(datastore, "nova/durability",
                              input_batch_size=64, dispatch_batch_size=8)
    schedule = FaultSchedule(seed).crash_restart(
        servers[1], crash_at=10, restart_at=40, lose_state=True)
    fabric.fault_model = schedule
    t0 = time.perf_counter()
    try:
        workflow.ingest(sample.paths, num_ranks=1)
    finally:
        fabric.fault_model = FaultModel()
    result = workflow.select(num_ranks=ranks)
    record("wal-replay-mid-write", result, time.perf_counter() - t0,
           servers, schedule)
    fabric.runtime.shutdown()

    # -- scenario: checkpoint, then lose everything -------------------------
    fabric = Fabric(threaded=True)
    servers = deploy(fabric, durable_root=f"{workdir}/s2")
    datastore = DataStore.connect(fabric, servers, retry_policy=policy)
    workflow = HEPnOSWorkflow(datastore, "nova/durability",
                              input_batch_size=64, dispatch_batch_size=8)
    workflow.ingest(sample.paths, num_ranks=1)
    t0 = time.perf_counter()
    servers[1].checkpoint()  # node1 recovers from its checkpoint ...
    for server in servers:   # ... node0 from pure WAL replay
        server.crash(lose_state=True)
    for server in servers:
        server.restart()
    result = workflow.select(num_ranks=ranks)
    record("kill-during-checkpoint", result, time.perf_counter() - t0,
           servers)
    fabric.runtime.shutdown()

    # -- scenario: replica failover + rejoin re-sync ------------------------
    fabric = Fabric(threaded=True)
    servers = deploy(fabric, replication=2)  # volatile backends: no WAL
    connection = enable_replication(servers, replication=2)
    datastore = DataStore.connect(fabric, connection,
                                  retry_policy=failover_client_policy())
    workflow = HEPnOSWorkflow(datastore, "nova/durability",
                              input_batch_size=64, dispatch_batch_size=8)
    workflow.ingest(sample.paths, num_ranks=1)
    datastore.sync_service()  # drain the replica links before the kill
    t0 = time.perf_counter()
    servers[1].crash(lose_state=True)
    result = workflow.select(num_ranks=ranks)
    failed_over = (_selection_bytes(result) == baseline_bytes)
    activated = datastore.metrics.counter("hepnos.failover.activated").value
    servers[1].restart()
    resynced = datastore.rejoin(str(servers[1].address))
    second = workflow.select(num_ranks=ranks)
    rejoined = (_selection_bytes(second) == baseline_bytes)
    scenarios.append(DurabilityScenario(
        name="failover-resync",
        matches=failed_over and rejoined,
        wall=time.perf_counter() - t0,
        detail={**_durability_stats(servers),
                "failovers_activated": activated,
                "resynced_keys": resynced,
                "failover_pass": failed_over, "rejoin_pass": rejoined},
    ))
    fabric.runtime.shutdown()

    # -- scenario: both servers die (staggered), WAL replay -----------------
    fabric = Fabric(threaded=True)
    servers = deploy(fabric, durable_root=f"{workdir}/s4")
    datastore = DataStore.connect(fabric, servers, retry_policy=policy)
    workflow = HEPnOSWorkflow(datastore, "nova/durability",
                              input_batch_size=64, dispatch_batch_size=8)
    workflow.ingest(sample.paths, num_ranks=1)
    # Low op indices: even a small selection run crosses them, and the
    # client's retries against the dead servers advance the op counter
    # (every attempt is a fabric send), so the restarts always fire.
    schedule = (FaultSchedule(seed)
                .crash_restart(servers[0], crash_at=5, restart_at=25,
                               lose_state=True)
                .crash_restart(servers[1], crash_at=15, restart_at=35,
                               lose_state=True))
    fabric.fault_model = schedule
    t0 = time.perf_counter()
    try:
        result = workflow.select(num_ranks=ranks)
        # A small run can finish before the later op indices arrive;
        # the counter persists across passes, so re-selecting drives
        # the remaining kills/restarts and re-checks parity after them.
        passes = 1
        while schedule.pending_actions and passes < 5:
            result = workflow.select(num_ranks=ranks)
            passes += 1
    finally:
        fabric.fault_model = FaultModel()
    record("kill-both-then-replay", result, time.perf_counter() - t0,
           servers, schedule)
    fabric.runtime.shutdown()

    # -- scenario: state loss during a live rescale -------------------------
    from repro.rescale import LiveRescaler, add_server

    fabric = Fabric(threaded=True)
    servers = deploy(fabric, durable_root=f"{workdir}/s5")
    datastore = DataStore.connect(fabric, servers, retry_policy=policy)
    workflow = HEPnOSWorkflow(datastore, "nova/durability",
                              input_batch_size=64, dispatch_batch_size=8)
    workflow.ingest(sample.paths, num_ranks=1)
    joining = BedrockServer(fabric, default_hepnos_config(
        "sm://joining/hepnos", durability_root=f"{workdir}/s5/joining",
        **layout))
    rescaler = LiveRescaler(
        datastore, add_server(datastore.connection, joining), batch_size=16)
    migration = {"stats": None, "error": None}

    def migrate() -> None:
        try:
            rescaler.begin()
            while rescaler.step():
                time.sleep(0.002)
            migration["stats"] = rescaler.commit()
        except BaseException as exc:  # noqa: BLE001 - reported below
            migration["error"] = exc

    schedule = FaultSchedule(seed).crash_restart(
        servers[1], crash_at=30, restart_at=60, lose_state=True)
    fabric.fault_model = schedule
    thread = threading.Thread(target=migrate, daemon=True,
                              name="durability-rescaler")
    t0 = time.perf_counter()
    thread.start()
    try:
        result = workflow.select(num_ranks=ranks)
    finally:
        thread.join(timeout=120.0)
        fabric.fault_model = FaultModel()
    if thread.is_alive():
        raise HEPnOSError(
            "live-rescaler thread still running after 120s join during "
            "the durability rescale-crash scenario"
        )
    if migration["error"] is not None:
        raise migration["error"]
    record("rescale-crash", result, time.perf_counter() - t0,
           servers + [joining], schedule,
           extra={"keys_moved": (migration["stats"].keys_moved
                                 if migration["stats"] else 0),
                  "final_epoch": datastore.placement.epoch})
    fabric.runtime.shutdown()

    # -- scenario: LSM engine killed with flush/compaction in flight --------
    # Tiny memtables + an aggressive trigger keep the background worker
    # continuously flushing and compacting during ingest, so the
    # mid-ingest state-loss crash lands on a half-written SSTable with
    # high probability.  Recovery replays the engine's own segmented
    # WAL and discards any orphan table the manifest never published.
    fabric = Fabric(threaded=True)
    servers = []
    for i in range(2):
        servers.append(BedrockServer(fabric, default_hepnos_config(
            f"sm://node{i}/hepnos", backend="lsm",
            storage_root=f"{workdir}/s6/node{i}",
            backend_config=dict(memtable_bytes=512, compaction_trigger=2,
                                max_immutables=2,
                                block_cache_bytes=256 * 1024),
            **layout)))
    fabric.runtime.start()
    datastore = DataStore.connect(fabric, servers, retry_policy=policy)
    workflow = HEPnOSWorkflow(datastore, "nova/durability",
                              input_batch_size=64, dispatch_batch_size=8)
    schedule = FaultSchedule(seed).crash_restart(
        servers[1], crash_at=10, restart_at=40, lose_state=True)
    fabric.fault_model = schedule
    t0 = time.perf_counter()
    try:
        workflow.ingest(sample.paths, num_ranks=1)
    finally:
        fabric.fault_model = FaultModel()
    result = workflow.select(num_ranks=ranks)
    record("lsm-crash-mid-compaction", result, time.perf_counter() - t0,
           servers, schedule,
           extra={"compactions": sum(
               stats["compactions"] for server in servers
               for stats in server.storage_stats().values())})
    fabric.runtime.shutdown()

    return DurabilityChaosReport(
        seed=seed,
        matches=all(s.ok for s in scenarios),
        baseline_accepted=len(baseline.accepted_ids),
        scenarios=scenarios,
    )


# -- multi-tenant chaos ------------------------------------------------------


@dataclass
class TenantChaosReport:
    """NOvA selection parity with the request broker in the path.

    The tenant run is metered: its session carries a tenant envelope
    and the service enforces a deliberately modest rate limit, so the
    standard fault schedule *and* real 429-style sheds both hit the
    selection.  Parity plus ``sheds > 0`` proves admission control is
    load-bearing yet invisible in the physics result.
    """

    seed: int
    matches: bool
    baseline_accepted: int
    tenant_accepted: int
    tenant: str = ""
    baseline_wall: float = 0.0
    tenant_wall: float = 0.0
    #: broker counters for the metered tenant (admitted/shed/...)
    broker: dict = field(default_factory=dict)
    #: fabric fault counters from the tenant run
    dropped: int = 0
    corrupted: int = 0
    delayed: int = 0
    timeouts: int = 0
    client_retries: int = 0
    client_giveups: int = 0
    schedule_counts: dict = field(default_factory=dict)
    pending_actions: list = field(default_factory=list)

    def summary(self) -> str:
        verdict = "MATCH" if self.matches else "MISMATCH"
        lines = [
            f"tenant chaos (seed={self.seed}): {verdict}",
            f"  selected events: baseline={self.baseline_accepted} "
            f"tenant={self.tenant_accepted}",
            f"  wall seconds: baseline={self.baseline_wall:.3f} "
            f"tenant={self.tenant_wall:.3f}",
            f"  broker[{self.tenant}]: "
            f"admitted={self.broker.get('admitted', 0)} "
            f"shed={self.broker.get('shed', 0)} "
            f"(rate={self.broker.get('shed_rate', 0)} "
            f"quota={self.broker.get('shed_quota', 0)} "
            f"queue={self.broker.get('shed_queue', 0)})",
            f"  injected: dropped={self.dropped} corrupted={self.corrupted} "
            f"delayed={self.delayed} timeouts={self.timeouts}",
            f"  client: retries={self.client_retries} "
            f"giveups={self.client_giveups}",
            f"  schedule: counts={dict(self.schedule_counts)}",
        ]
        if self.pending_actions:
            lines.append(f"  NEVER FIRED: {self.pending_actions}")
        return "\n".join(lines)


def run_tenant_chaos(seed: int = 0, files: int = 2, ranks: int = 2,
                     mean_events_per_file: int = 24,
                     drop: float = 0.02, delay: float = 0.0005,
                     corrupt: float = 0.01,
                     crash_window: Optional[Tuple[int, int]] = (10, 30),
                     spike_window: Optional[Tuple[int, int]] = (40, 50),
                     rate: float = 50.0, burst: float = 5.0,
                     quick: bool = False,
                     workdir: Optional[str] = None) -> TenantChaosReport:
    """NOvA selection through a metered tenant session, under chaos.

    The baseline run is the stock unbrokered service, fault-free.  The
    tenant run deploys the same layout with a request broker whose
    registry meters the ``nova`` tenant at ``rate`` requests/s (burst
    ``burst``) -- low enough that the selection is genuinely shed and
    must recover through ``retry_after_s`` hints -- then installs the
    standard fault schedule for the selection phase.  The verdict is
    set equality of accepted event ids.
    """
    if quick:
        files = min(files, 2)
    if workdir is None:
        workdir = tempfile.mkdtemp(prefix="hepnos-tenant-chaos-")
    sample = generate_file_set(
        f"{workdir}/files", num_files=files,
        mean_events_per_file=mean_events_per_file,
        config=GeneratorConfig(signal_fraction=0.1, events_per_subrun=16,
                               subruns_per_run=4),
    )
    policy = chaos_client_policy()

    # -- fault-free, unbrokered baseline ------------------------------------
    fabric = Fabric(threaded=True)
    servers = _deploy(fabric)
    datastore = DataStore.connect(fabric, servers, retry_policy=policy)
    workflow = HEPnOSWorkflow(datastore, "nova/tenant-chaos",
                              input_batch_size=64, dispatch_batch_size=8)
    baseline = workflow.run(sample.paths, num_ranks=ranks)
    fabric.runtime.shutdown()

    # -- brokered tenant run under the fault schedule -----------------------
    import repro.hepnos as hepnos

    tenant = "nova"
    tenants_config = {
        "slots": 8,
        "interactive_reserve": 2,
        "registry": [
            {"id": tenant, "priority": "interactive",
             "rate": rate, "burst": burst},
        ],
    }
    fabric = Fabric(threaded=True)
    servers = _deploy(fabric, tenants=tenants_config)
    session = hepnos.connect(servers=servers, tenant=tenant,
                             priority="interactive", retry_policy=policy)
    workflow = HEPnOSWorkflow(session.datastore, "nova/tenant-chaos",
                              input_batch_size=64, dispatch_batch_size=8)
    workflow.ingest(sample.paths, num_ranks=1)

    schedule = build_schedule(seed, servers, drop, delay, corrupt,
                              crash_window, spike_window)
    fabric.stats.reset()
    fabric.fault_model = schedule
    try:
        tenant_result = workflow.select(num_ranks=ranks)
    finally:
        fabric.fault_model = FaultModel()
    stats = fabric.stats
    broker_counters: dict = {}
    for server in servers:
        snapshot = server.tenant_stats()
        counters = snapshot.get("tenants", {}).get(tenant)
        if counters:
            for key, value in counters.items():
                if isinstance(value, (int, float)):
                    broker_counters[key] = broker_counters.get(key, 0) + value
    metrics = session.datastore.metrics
    report = TenantChaosReport(
        seed=seed,
        matches=(frozenset(tenant_result.accepted_ids)
                 == frozenset(baseline.accepted_ids)),
        baseline_accepted=len(baseline.accepted_ids),
        tenant_accepted=len(tenant_result.accepted_ids),
        tenant=tenant,
        baseline_wall=baseline.wall_seconds,
        tenant_wall=tenant_result.wall_seconds,
        broker=broker_counters,
        dropped=stats.dropped,
        corrupted=stats.corrupted,
        delayed=stats.delayed,
        timeouts=stats.timeouts,
        client_retries=metrics.counter("yokan.client.retries").value,
        client_giveups=metrics.counter("yokan.client.giveups").value,
        schedule_counts=dict(schedule.counts),
        pending_actions=schedule.pending_actions,
    )
    session.close()
    fabric.runtime.shutdown()
    return report


__all__ = ["ChaosReport", "DurabilityChaosReport", "DurabilityScenario",
           "RescaleChaosReport", "build_schedule", "chaos_client_policy",
           "failover_client_policy", "run_durability_chaos",
           "run_nova_chaos", "run_rescale_chaos", "run_tenant_chaos",
           "TenantChaosReport"]
