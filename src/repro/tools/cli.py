"""The ``repro-hepnos`` command-line interface.

Subcommands that work standalone (no live service needed):

- ``generate``  -- produce a synthetic NOvA-like file set;
- ``inspect``   -- show an hdf5lite file's structure (HDF2HEPnOS's
  analysis step, human-readable);
- ``demo``      -- spin up an in-process service, ingest a small
  sample, run the selection, and print the store tree;
- ``scaling``   -- regenerate the paper's Figure 2/3 series on the
  platform simulator;
- ``tenants``   -- demo the multi-tenant request broker: metered
  tenant sessions against one service, then the ops surface
  (per-tenant admitted/shed/queued table + slow-query log);
- ``storage``   -- demo the LSM storage engine: ingest + select on an
  LSM-backed service, then the per-database engine stats (memtable
  pipeline, tiers, cache hit rate, write/read amplification);
- ``tune``      -- autotune the deployable configuration on the
  simulator.
"""

from __future__ import annotations

import argparse
import sys
import tempfile


def _cmd_generate(args) -> int:
    from repro.nova import GeneratorConfig, generate_file_set

    config = GeneratorConfig(signal_fraction=args.signal_fraction)
    summary = generate_file_set(
        args.directory, num_files=args.files,
        mean_events_per_file=args.events_per_file, config=config,
        size_spread=args.spread,
    )
    print(f"wrote {summary.num_files} files under {args.directory}: "
          f"{summary.total_events} events, {summary.total_slices} slices")
    print(f"events per file: min={min(summary.events_per_file)} "
          f"mean={summary.total_events / summary.num_files:.0f} "
          f"max={max(summary.events_per_file)}")
    return 0


def _cmd_inspect(args) -> int:
    from repro.tools.inspect import file_structure

    for path in args.paths:
        print(file_structure(path))
    return 0


def _cmd_demo(args) -> int:
    from repro.bedrock import BedrockServer, default_hepnos_config
    from repro.hepnos import DataStore, PEPOptions
    from repro.mercury import Fabric
    from repro.nova import GeneratorConfig, generate_file_set
    from repro.tools.inspect import service_stat, tree
    from repro.workflows import HEPnOSWorkflow

    with tempfile.TemporaryDirectory(prefix="hepnos-demo-") as workdir:
        sample = generate_file_set(
            f"{workdir}/files", num_files=4, mean_events_per_file=24,
            config=GeneratorConfig(signal_fraction=0.05, events_per_subrun=16,
                                   subruns_per_run=4),
        )
        fabric = Fabric(threaded=True)
        servers = [
            BedrockServer(fabric, default_hepnos_config(
                f"sm://node{i}/hepnos", num_providers=4, event_databases=4,
                product_databases=4, run_databases=2, subrun_databases=2,
            ))
            for i in range(2)
        ]
        fabric.runtime.start()
        datastore = DataStore.connect(fabric, servers)
        workflow = HEPnOSWorkflow(
            datastore, "nova/demo",
            pep_options=PEPOptions(input_batch_size=64, dispatch_batch_size=8))
        result = workflow.run(sample.paths, num_ranks=args.ranks)
        print(f"ingested {sample.num_files} files; selected "
              f"{len(result.accepted_ids)} of {result.slices_examined} slices\n")
        print("store tree:")
        print(tree(datastore))
        print("\nservice statistics:")
        print(service_stat(datastore))
        fabric.runtime.shutdown()
    return 0


def _cmd_demo_export(args) -> int:
    """Demo the full cycle: generate -> ingest -> export -> inspect."""
    from repro.bedrock import BedrockServer, default_hepnos_config
    from repro.hepnos import DataLoader, DataStore, DatasetExporter
    from repro.mercury import Fabric
    from repro.nova import GeneratorConfig, generate_file_set
    from repro.tools.inspect import file_structure

    with tempfile.TemporaryDirectory(prefix="hepnos-export-") as workdir:
        sample = generate_file_set(
            f"{workdir}/files", num_files=2, mean_events_per_file=16,
            config=GeneratorConfig(events_per_subrun=16, subruns_per_run=4),
        )
        fabric = Fabric()
        server = BedrockServer(fabric, default_hepnos_config(
            "sm://node0/hepnos", num_providers=4, event_databases=4,
            product_databases=4, run_databases=2, subrun_databases=2,
        ))
        datastore = DataStore.connect(fabric, [server])
        DataLoader(datastore, "cli/export").ingest(sample.paths)
    stats = DatasetExporter(datastore, "cli/export").export(
        args.output, ["rec.slc"], compression="zlib",
    )
    print(f"exported {stats.rows} rows from {stats.events} events "
          f"to {args.output}")
    print(file_structure(args.output))
    return 0


def _cmd_rescale(args) -> int:
    """Demo a live rescale: grow the service under ingest traffic."""
    from repro.bedrock import BedrockServer, default_hepnos_config
    from repro.hepnos import DataStore, PEPOptions
    from repro.mercury import Fabric
    from repro.nova import GeneratorConfig, generate_file_set
    from repro.rescale import LiveRescaler, add_server
    from repro.workflows import HEPnOSWorkflow

    with tempfile.TemporaryDirectory(prefix="hepnos-rescale-") as workdir:
        sample = generate_file_set(
            f"{workdir}/files", num_files=args.files, mean_events_per_file=24,
            config=GeneratorConfig(signal_fraction=0.05, events_per_subrun=16,
                                   subruns_per_run=4),
        )
        fabric = Fabric(threaded=True)
        servers = [
            BedrockServer(fabric, default_hepnos_config(
                f"sm://node{i}/hepnos", num_providers=2, event_databases=2,
                product_databases=2, run_databases=1, subrun_databases=1,
            ))
            for i in range(args.servers)
        ]
        fabric.runtime.start()
        datastore = DataStore.connect(fabric, servers)
        workflow = HEPnOSWorkflow(
            datastore, "nova/rescale",
            pep_options=PEPOptions(input_batch_size=64, dispatch_batch_size=8))
        workflow.ingest(sample.paths, num_ranks=1)
        print(f"ingested {sample.total_events} events into "
              f"{len(servers)} servers; shard map: "
              f"{datastore.placement.describe()}")

        joining = BedrockServer(fabric, default_hepnos_config(
            "sm://joining/hepnos", num_providers=2, event_databases=2,
            product_databases=2, run_databases=1, subrun_databases=1,
        ))
        rescaler = LiveRescaler(datastore, add_server(datastore.connection,
                                                      joining),
                                batch_size=args.batch_size)
        steps = {"n": 0}

        def tick() -> None:
            steps["n"] += 1

        stats = rescaler.run(step_callback=tick)
        print(f"live rescale: epoch {datastore.placement.epoch}, "
              f"{steps['n']} steps")
        print(f"  {stats.describe()}")
        for kind, count in sorted(stats.moves_by_kind.items()):
            print(f"    moved {kind}: {count}")
        result = workflow.select(num_ranks=2)
        print(f"post-rescale selection: {len(result.accepted_ids)} of "
              f"{result.slices_examined} slices accepted")
        fabric.runtime.shutdown()
    return 0


def _cmd_scaling(args) -> int:
    from repro.perf import (
        LARGE,
        check_figure2_shape,
        format_records,
        run_dataset_sweep,
        run_strong_scaling,
    )

    dataset = LARGE.scaled(args.scale) if args.scale != 1.0 else LARGE
    records = run_strong_scaling(dataset=dataset, repeats=args.repeats)
    print("== Figure 2 ==")
    print(format_records(records))
    if args.scale == 1.0:
        for name, value in check_figure2_shape(records).items():
            print(f"  {name}: {value}")
    print("\n== Figure 3 ==")
    print(format_records(run_dataset_sweep(repeats=args.repeats),
                         group_by_dataset=True))
    return 0


def _cmd_tune(args) -> int:
    from repro.perf.workload import LARGE
    from repro.tuning import hepnos_objective, tune_hepnos
    from repro.tuning.objective import PAPER_CONFIG

    dataset = LARGE.scaled(args.scale)
    result = tune_hepnos(nodes=args.nodes, dataset=dataset,
                         budget=args.budget, seed=args.seed)
    paper = hepnos_objective(PAPER_CONFIG, nodes=args.nodes, dataset=dataset)
    print(f"evaluated {result.evaluations} configurations")
    print(f"paper config: {paper:,.0f} slices/s")
    print(f"best found:   {result.best_score:,.0f} slices/s "
          f"({result.best_score / paper - 1:+.1%})")
    for key, value in sorted(result.best_config.items()):
        mark = "" if PAPER_CONFIG[key] == value else \
            f"   (paper: {PAPER_CONFIG[key]})"
        print(f"  {key} = {value}{mark}")
    return 0


def _cmd_tenants(args) -> int:
    """Drive a brokered in-process service; print the ops surface."""
    from repro.bedrock import BedrockServer, default_hepnos_config
    from repro.errors import ServiceBusy
    from repro.mercury import Fabric
    from repro.tools.common import emit_report
    import repro.hepnos as hepnos

    rounds = 4 if args.quick else 12
    fabric = Fabric(threaded=True)
    server = BedrockServer(fabric, default_hepnos_config(
        "sm://node0/hepnos", num_providers=2, event_databases=2,
        product_databases=2, run_databases=1, subrun_databases=1,
        tenants={
            "slots": 4,
            "interactive_reserve": 1,
            "slow_query_s": 0.0,  # log everything for the demo
            "registry": [
                {"id": "nova-interactive", "priority": "interactive"},
                {"id": "dune-batch", "priority": "batch"},
                {"id": "abusive-batch", "priority": "batch",
                 "rate": args.rate, "burst": 2},
            ],
        },
    ))
    fabric.runtime.start()

    def drive(tenant: str, priority: str, dataset: str) -> None:
        with hepnos.connect(servers=[server], tenant=tenant,
                            priority=priority) as session:
            ds = session.create_dataset(dataset)
            for r in range(rounds):
                run = ds.create_run(r)
                subrun = run.create_subrun(0)
                event = subrun.create_event(r)
                try:
                    event.store([float(r)] * 8, label="payload")
                except ServiceBusy:
                    pass  # the demo tolerates giveups past the budget

    import threading

    threads = [
        threading.Thread(target=drive, args=spec)
        for spec in (
            ("nova-interactive", "interactive", "tenants/nova"),
            ("dune-batch", "batch", "tenants/dune"),
            ("abusive-batch", "batch", "tenants/abuse"),
        )
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    stats = server.tenant_stats()
    server.shutdown()
    fabric.runtime.shutdown()
    if args.json:
        emit_report(stats, True)
        return 0
    columns = ("admitted", "shed", "completed", "bytes_in_flight",
               "bytes_served")
    width = max(len(t) for t in stats["tenants"]) + 2
    header = "tenant".ljust(width) + "".join(
        c.rjust(len(c) + 3) for c in columns)
    print(header)
    print("-" * len(header))
    for tenant, counters in stats["tenants"].items():
        row = tenant.ljust(width) + "".join(
            str(counters.get(c, 0)).rjust(len(c) + 3) for c in columns)
        print(row)
    slow = sorted(stats["slow_queries"], key=lambda e: e["elapsed_s"])
    print(f"\nslow queries ({len(slow)} logged, slowest last):")
    for entry in slow[-args.slow:]:
        print(f"  {entry['elapsed_s'] * 1e3:8.2f}ms "
              f"{entry['tenant']:<18} {entry['op']:<22} "
              f"{entry['bytes']}B")
    return 0


def _cmd_storage(args) -> int:
    """Drive an LSM-backed service; print per-database engine stats."""
    from repro.bedrock import BedrockServer, default_hepnos_config
    from repro.hepnos import DataStore, PEPOptions
    from repro.mercury import Fabric
    from repro.nova import GeneratorConfig, generate_file_set
    from repro.tools.common import emit_report
    from repro.workflows import HEPnOSWorkflow

    with tempfile.TemporaryDirectory(prefix="hepnos-storage-") as workdir:
        sample = generate_file_set(
            f"{workdir}/files", num_files=1 if args.quick else 4,
            mean_events_per_file=16 if args.quick else 48,
            config=GeneratorConfig(signal_fraction=0.1, events_per_subrun=16,
                                   subruns_per_run=4),
        )
        fabric = Fabric(threaded=True)
        servers = [
            BedrockServer(fabric, default_hepnos_config(
                f"sm://node{i}/hepnos", num_providers=2, event_databases=2,
                product_databases=2, run_databases=1, subrun_databases=1,
                backend="lsm", storage_root=f"{workdir}/node{i}",
                backend_config={
                    "memtable_bytes": args.memtable_bytes,
                    "compaction_trigger": 2,
                    "block_cache_bytes": 1 << 20,
                },
            ))
            for i in range(2)
        ]
        fabric.runtime.start()
        datastore = DataStore.connect(fabric, servers)
        workflow = HEPnOSWorkflow(
            datastore, "nova/storage",
            pep_options=PEPOptions(input_batch_size=64, dispatch_batch_size=8))
        result = workflow.run(sample.paths, num_ranks=2)
        stats = {f"node{i}": server.storage_stats()
                 for i, server in enumerate(servers)}
        fabric.runtime.shutdown()
    if args.json:
        emit_report({"selected": len(result.accepted_ids),
                     "databases": stats}, True)
        return 0
    print(f"ingested {sample.total_events} events, selected "
          f"{len(result.accepted_ids)} of {result.slices_examined} slices\n")
    columns = ("memtable_entries", "immutables", "sstables", "flushes",
               "compactions", "compaction_backlog")
    width = max(
        (len(f"{node}/{name}") for node, dbs in stats.items() for name in dbs),
        default=8) + 2
    header = "database".ljust(width) + "".join(
        c.rjust(len(c) + 3) for c in columns) \
        + "   cache_hit   w-amp   r-amp   tiers"
    print(header)
    print("-" * len(header))
    for node, dbs in sorted(stats.items()):
        for name, db in sorted(dbs.items()):
            row = f"{node}/{name}".ljust(width) + "".join(
                str(db[c]).rjust(len(c) + 3) for c in columns)
            tiers = ",".join(f"{k}:{v}" for k, v in db["tiers"].items()) \
                or "-"
            row += (f"   {db['block_cache_hit_rate']:9.2%}"
                    f"   {db['write_amplification']:5.2f}"
                    f"   {db['read_amplification']:5.2f}   {tiers}")
            print(row)
    totals = [sum(db[c] for dbs in stats.values() for db in dbs.values())
              for c in columns]
    print("-" * len(header))
    print("total".ljust(width) + "".join(
        str(t).rjust(len(c) + 3) for t, c in zip(totals, columns)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-hepnos",
        description="HEPnOS reproduction toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="produce a synthetic file set")
    p.add_argument("directory")
    p.add_argument("--files", type=int, default=8)
    p.add_argument("--events-per-file", type=int, default=64)
    p.add_argument("--signal-fraction", type=float, default=0.02)
    p.add_argument("--spread", type=float, default=0.35)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("inspect", help="show an hdf5lite file's structure")
    p.add_argument("paths", nargs="+")
    p.set_defaults(fn=_cmd_inspect)

    p = sub.add_parser("demo", help="end-to-end in-process demonstration")
    p.add_argument("--ranks", type=int, default=4)
    p.set_defaults(fn=_cmd_demo)

    p = sub.add_parser("export", help="demo: ingest then export a dataset")
    p.add_argument("output", help="output hdf5lite path")
    p.set_defaults(fn=_cmd_demo_export)

    p = sub.add_parser("rescale",
                       help="demo a live rescale under traffic")
    p.add_argument("--servers", type=int, default=2)
    p.add_argument("--files", type=int, default=2)
    p.add_argument("--batch-size", type=int, default=64)
    p.set_defaults(fn=_cmd_rescale)

    p = sub.add_parser("scaling", help="regenerate the paper's figures")
    p.add_argument("--scale", type=float, default=1.0,
                   help="dataset scale factor (1.0 = paper size)")
    p.add_argument("--repeats", type=int, default=1)
    p.set_defaults(fn=_cmd_scaling)

    from repro.tools.common import common_parser

    p = sub.add_parser("tenants",
                       help="demo the request broker's ops surface",
                       parents=[common_parser()])
    p.add_argument("--rate", type=float, default=40.0,
                   help="rate limit for the abusive tenant (default: 40)")
    p.add_argument("--slow", type=int, default=8,
                   help="slow-query log entries to show (default: 8)")
    p.set_defaults(fn=_cmd_tenants)

    p = sub.add_parser("storage",
                       help="demo the LSM storage engine's ops surface",
                       parents=[common_parser()])
    p.add_argument("--memtable-bytes", type=int, default=4096,
                   help="rotation threshold; small values keep the "
                        "background pipeline busy (default: 4096)")
    p.set_defaults(fn=_cmd_storage)

    p = sub.add_parser("tune", help="autotune the configuration")
    p.add_argument("--nodes", type=int, default=64)
    p.add_argument("--budget", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=float, default=1 / 32)
    p.set_defaults(fn=_cmd_tune)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
