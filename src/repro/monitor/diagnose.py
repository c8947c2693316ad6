"""The analysis pass: turn what a deployment already records into findings.

This reproduces the role monitoring played in HEPnOS's development
(paper section V): the early performance problems it diagnosed led to
the batching and parallel-event-processing optimizations.  The pass is
a query over two inputs every deployment has -- the fabric's traffic
counters (:class:`~repro.mercury.FabricStats`) and, when one was
captured, a trace (:class:`~repro.monitor.tracing.TraceCollector`, live
or loaded from a saved file).  It reads them and changes nothing.

From the fabric counters:

- **chatty client** -- over :data:`BUSY_RPCS` RPCs averaging under
  :data:`SMALL_RPC_BYTES` each: recommend WriteBatch / batched loads
  (otherwise an informational **traffic** line);
- **fabric drops** -- messages dropped at injection (saturation).

From the ``yokan.provider.*`` spans, per database (a server address
plus a database name; every server has the same names):

- **hot database** -- one database serving over :data:`SKEW_THRESHOLD`
  times the mean load, where a span weighs its ``keys`` or
  ``prefixes`` tag, else 1 (otherwise an informational **balance**
  line);
- **slow tail** -- a database whose exact p99 span duration is over
  :data:`TAIL_THRESHOLD` times its mean, over at least
  :data:`TAIL_MIN_SPANS` spans.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.mercury import FabricStats
    from repro.monitor.tracing import TraceCollector

#: RPC count above which the fabric's traffic is judged at all.
BUSY_RPCS = 100
#: Mean bytes per RPC below which a busy client is chatty.
SMALL_RPC_BYTES = 256.0
#: Hottest database's load over the mean that flags a hot database.
SKEW_THRESHOLD = 4.0
#: p99 over mean span duration that flags a slow tail.
TAIL_THRESHOLD = 50.0
#: Fewest spans a database needs before its tail is judged.
TAIL_MIN_SPANS = 10

_PROVIDER_SPAN = "yokan.provider."


@dataclass
class Finding:
    severity: str  # "info" | "warning"
    code: str
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.code}: {self.message}"


@dataclass
class DiagnosticReport:
    findings: list = field(default_factory=list)

    @property
    def warnings(self) -> list:
        return [f for f in self.findings if f.severity == "warning"]

    def has(self, code: str) -> bool:
        return any(f.code == code for f in self.findings)

    def __str__(self) -> str:
        if not self.findings:
            return "no findings"
        return "\n".join(str(f) for f in self.findings)


def diagnose(stats: Optional["FabricStats"] = None,
             trace: Optional["TraceCollector"] = None) -> DiagnosticReport:
    """Analyze fabric counters and a trace; report findings."""
    report = DiagnosticReport()
    if stats is not None:
        _fabric_findings(stats, report.findings)
    if trace is not None:
        _database_findings(trace, report.findings)
    return report


def _fabric_findings(stats: "FabricStats", findings: list) -> None:
    if stats.rpc_count > BUSY_RPCS:
        per_rpc = stats.total_bytes / stats.rpc_count
        if per_rpc < SMALL_RPC_BYTES:
            findings.append(Finding(
                "warning", "chatty-client",
                f"{stats.rpc_count} RPCs averaging {per_rpc:.0f} B "
                "each; use WriteBatch / batched product loads to "
                "amortize per-RPC overhead",
            ))
        else:
            findings.append(Finding(
                "info", "traffic",
                f"{stats.rpc_count} RPCs, {per_rpc:.0f} B average",
            ))
    if stats.dropped:
        findings.append(Finding(
            "warning", "fabric-drops",
            f"{stats.dropped} messages dropped (injection bandwidth "
            "oversaturated); throttle concurrent bulk transfers",
        ))


def _database_findings(trace: "TraceCollector", findings: list) -> None:
    # Both keyed on (address, db).
    load: dict[tuple, int] = defaultdict(int)
    durations: dict[tuple, list] = defaultdict(list)
    for span in list(trace.spans):
        tags = span.tags
        if "db" in tags and span.name.startswith(_PROVIDER_SPAN):
            db = (tags.get("address", ""), tags["db"])
            load[db] += tags.get("keys", tags.get("prefixes", 1))
            durations[db].append(span.duration)

    loaded = {db: n for db, n in load.items() if n > 0}
    if len(loaded) >= 2:
        mean = sum(loaded.values()) / len(loaded)
        hottest = max(loaded, key=loaded.get)
        if loaded[hottest] > SKEW_THRESHOLD * mean:
            findings.append(Finding(
                "warning", "hot-database",
                f"{_name(hottest)} served {loaded[hottest]} ops "
                f"({loaded[hottest] / mean:.1f}x the mean); check "
                "placement keys or workload skew",
            ))
        else:
            findings.append(Finding(
                "info", "balance",
                f"{len(loaded)} active databases, hottest at "
                f"{loaded[hottest] / mean:.1f}x the mean load",
            ))

    for db in sorted(durations):
        seconds = sorted(durations[db])
        if len(seconds) < TAIL_MIN_SPANS:
            continue
        mean = sum(seconds) / len(seconds)
        if mean <= 0:
            continue
        p99 = seconds[math.ceil(0.99 * len(seconds)) - 1]  # nearest rank
        if p99 > TAIL_THRESHOLD * mean:
            findings.append(Finding(
                "warning", "slow-tail",
                f"{_name(db)}: p99 {p99:.2g}s vs mean {mean:.2g}s",
            ))


def _name(db: tuple) -> str:
    address, name = db
    return f"database {name!r} at {address}"
