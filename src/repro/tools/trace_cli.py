"""The ``repro-trace`` command-line interface.

Capture and inspect distributed traces from the Mochi stack:

- ``nova``     -- run a scaled-down NOvA candidate selection with
  tracing enabled and write the trace as Chrome trace-event JSON
  (load it in ``chrome://tracing`` or https://ui.perfetto.dev);
- ``view``     -- render a captured trace file as a span tree, a
  critical-path breakdown, or a per-span-name summary table.

Example::

    repro-trace nova --out /tmp/nova-trace.json
    repro-trace view /tmp/nova-trace.json --tree
    repro-trace view /tmp/nova-trace.json --critical-path
"""

from __future__ import annotations

import argparse
import sys
import tempfile

from repro.monitor.tracing import TraceCollector, trace_session


def _format_summary(collector: TraceCollector) -> str:
    rows = sorted(collector.summary().items(),
                  key=lambda kv: -kv[1]["total_seconds"])
    if not rows:
        return "(no spans)"
    width = max(len(name) for name, _ in rows)
    lines = [f"{'span':<{width}}  {'count':>7}  {'total':>10}  {'mean':>10}"]
    for name, entry in rows:
        lines.append(
            f"{name:<{width}}  {entry['count']:>7}  "
            f"{entry['total_seconds'] * 1e3:>8.2f}ms  "
            f"{entry['mean_seconds'] * 1e6:>8.1f}us"
        )
    return "\n".join(lines)


def _format_critical_path(collector: TraceCollector) -> str:
    path = collector.critical_path()
    if not path:
        return "(no trace)"
    total = path[0]["duration"] or 1.0
    lines = ["critical path (dominant trace):"]
    for depth, step in enumerate(path):
        share = step["self_time"] / total
        lines.append(
            f"  {'  ' * depth}{step['name']} "
            f"self={step['self_time'] * 1e6:.0f}us "
            f"({share:.0%} of root)"
        )
    return "\n".join(lines)


def _report(collector: TraceCollector, args) -> None:
    shown = False
    if getattr(args, "tree", False):
        print(collector.render_tree(max_spans=args.max_spans))
        shown = True
    if getattr(args, "critical_path", False):
        print(_format_critical_path(collector))
        shown = True
    if not shown or getattr(args, "summary", False):
        print(_format_summary(collector))


def _cmd_nova(args) -> int:
    """Trace an in-process NOvA ingest + candidate selection."""
    from repro.bedrock import BedrockServer, default_hepnos_config
    from repro.hepnos import DataStore, PEPOptions
    from repro.mercury import Fabric
    from repro.nova import GeneratorConfig, generate_file_set
    from repro.workflows import HEPnOSWorkflow

    with tempfile.TemporaryDirectory(prefix="repro-trace-") as workdir:
        sample = generate_file_set(
            f"{workdir}/files", num_files=args.files,
            mean_events_per_file=args.events_per_file,
            config=GeneratorConfig(signal_fraction=0.05, events_per_subrun=16,
                                   subruns_per_run=4),
        )
        fabric = Fabric(threaded=True)
        servers = [
            BedrockServer(fabric, default_hepnos_config(
                f"sm://node{i}/hepnos", num_providers=2, event_databases=2,
                product_databases=2, run_databases=1, subrun_databases=1,
            ))
            for i in range(2)
        ]
        fabric.runtime.start()
        datastore = DataStore.connect(fabric, servers)
        workflow = HEPnOSWorkflow(
            datastore, "nova/traced",
            pep_options=PEPOptions(input_batch_size=64, dispatch_batch_size=8))
        with trace_session() as tracer:
            result = workflow.run(sample.paths, num_ranks=args.ranks)
        fabric.runtime.shutdown()

    collector = tracer.collector
    print(f"traced {sample.num_files} files -> {result.events_processed} "
          f"events, {len(result.accepted_ids)} candidates; "
          f"{len(collector)} spans collected")
    collector.save(args.out)
    print(f"wrote Chrome trace-event JSON to {args.out}")
    print()
    _report(collector, args)
    return 0


def _cmd_view(args) -> int:
    try:
        collector = TraceCollector.load(args.path)
    except OSError as exc:
        print(f"repro-trace: cannot read {args.path}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        print(f"repro-trace: {args.path} is not a repro trace file ({exc})",
              file=sys.stderr)
        return 2
    print(f"{args.path}: {len(collector)} spans, "
          f"{len(collector.traces())} traces")
    _report(collector, args)
    return 0


def _add_report_flags(parser) -> None:
    parser.add_argument("--tree", action="store_true",
                        help="print the span tree")
    parser.add_argument("--critical-path", action="store_true",
                        help="print the dominant trace's critical path")
    parser.add_argument("--summary", action="store_true",
                        help="print the per-span-name summary table")
    parser.add_argument("--max-spans", type=int, default=200,
                        help="tree rendering cap")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="capture and inspect Mochi-stack distributed traces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nova", help="trace a NOvA selection end to end")
    p.add_argument("--out", default="nova-trace.json",
                   help="output Chrome trace-event JSON path")
    p.add_argument("--files", type=int, default=2)
    p.add_argument("--events-per-file", type=int, default=24)
    p.add_argument("--ranks", type=int, default=2)
    _add_report_flags(p)
    p.set_defaults(fn=_cmd_nova)

    p = sub.add_parser("view", help="inspect a captured trace file")
    p.add_argument("path")
    _add_report_flags(p)
    p.set_defaults(fn=_cmd_view)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
