"""``repro-chaos``: run the NOvA workflow under a seeded fault schedule.

Runs one family of :data:`repro.faults.chaos.FAMILIES` -- the stock run
(drops, latency, payload corruption, a timeout-inducing latency spike
and a provider crash/restart during selection) unless ``--rescale``,
``--durability`` or ``--tenants`` picks another -- and verifies every
scenario selects the byte-identical event set of the fault-free
baseline.  The exit status is the printed verdict (``report.ok``), so
it doubles as a CI chaos smoke test::

    repro-chaos --seed 7
    repro-chaos --seed 3 --files 4 --ranks 4 --drop 0.05
    repro-chaos --tenants --quick --seed 5 --json

Shares the ``--quick`` / ``--json`` / ``--seed`` flag conventions with
``repro-hepnos`` via :mod:`repro.tools.common`.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence, Tuple

from repro.faults.chaos import STOCK_FAULTS, run_chaos
from repro.tools.common import common_parser, emit_report


def _window(text: str) -> Optional[Tuple[int, int]]:
    if text.lower() in ("none", "off", ""):
        return None
    try:
        start, end = (int(part) for part in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected START:END (op indices) or 'none', got {text!r}"
        ) from None
    if end <= start:
        raise argparse.ArgumentTypeError("window end must be after its start")
    return (start, end)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-chaos",
        description="Chaos-test the HEPnOS selection workflow: inject "
                    "faults during selection and verify the physics "
                    "result is unchanged.",
        parents=[common_parser()],
    )
    parser.add_argument("--files", type=int, default=2,
                        help="synthetic input files (default: 2)")
    parser.add_argument("--ranks", type=int, default=2,
                        help="selection MPI ranks (default: 2)")
    parser.add_argument("--events-per-file", type=int, default=24,
                        help="mean events per generated file (default: 24)")
    # argparse.SUPPRESS: an unset schedule flag is absent from the
    # namespace, so the family's default in FAMILIES applies.
    parser.add_argument("--drop", type=float, default=argparse.SUPPRESS,
                        help="message drop probability "
                             "(stock default: 0.02)")
    parser.add_argument("--delay", type=float, default=argparse.SUPPRESS,
                        help="mean injected latency in seconds "
                             "(stock default: 0.0005)")
    parser.add_argument("--corrupt", type=float, default=argparse.SUPPRESS,
                        help="payload corruption probability "
                             "(stock default: 0.01)")
    parser.add_argument("--crash-window", type=_window,
                        default=argparse.SUPPRESS, metavar="START:END",
                        help="op window for provider crash/restart, or "
                             "'none' (stock default: 10:30)")
    parser.add_argument("--spike-window", type=_window,
                        default=argparse.SUPPRESS, metavar="START:END",
                        help="op window for the timeout-inducing latency "
                             "spike, or 'none' (stock default: 40:50)")
    parser.add_argument("--workdir", default=None,
                        help="directory for generated files "
                             "(default: fresh temp dir)")
    parser.add_argument("--rescale", action="store_true",
                        help="instead of the stock chaos run, check "
                             "selection parity across shard counts with "
                             "a provider joining mid-selection (live "
                             "rescale under chaos)")
    parser.add_argument("--durability", action="store_true",
                        help="instead of the stock chaos run, kill "
                             "servers with real state loss and verify "
                             "the selection survives via WAL replay, "
                             "replica failover, and rejoin re-sync")
    parser.add_argument("--tenants", action="store_true",
                        help="instead of the stock chaos run, route the "
                             "selection through a metered tenant session "
                             "(request broker + rate-limit sheds) and "
                             "verify parity")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    family = ("tenants" if args.tenants else "durability" if args.durability
              else "rescale" if args.rescale else "stock")
    report = run_chaos(
        family,
        seed=args.seed,
        files=args.files,
        ranks=args.ranks,
        mean_events_per_file=args.events_per_file,
        quick=args.quick,
        workdir=args.workdir,
        **{flag: getattr(args, flag) for flag in STOCK_FAULTS
           if hasattr(args, flag)},
    )
    emit_report(report, args.json)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
