"""The analysis pass: turn collected metrics into actionable findings.

This reproduces the role monitoring played in HEPnOS's development
(paper section V): the early performance problems it diagnosed led to
the batching and parallel-event-processing optimizations.  The checks
here detect exactly those classes of problem:

- **chatty clients** -- over 100 RPCs averaging under
  :data:`SMALL_RPC_BYTES` each: recommend WriteBatch / batched loads;
- **hot databases** -- one database serving over :data:`SKEW_THRESHOLD`
  times the mean operation count: placement or workload imbalance;
- **slow tail** -- a p99 over :data:`TAIL_THRESHOLD` times the mean
  latency on some database;
- **drops** -- fabric-level message drops (injection saturation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.monitor.collect import FabricMonitor, ProviderMonitor

#: Mean bytes per RPC below which a busy client is chatty.
SMALL_RPC_BYTES = 256.0
#: Hottest database's op count over the mean that flags a hot database.
SKEW_THRESHOLD = 4.0
#: p99 over mean latency that flags a slow tail.
TAIL_THRESHOLD = 50.0


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


def diagnose(
    fabric_monitor: Optional[FabricMonitor] = None,
    provider_monitors: Sequence[ProviderMonitor] = (),
) -> DiagnosticReport:
    """Analyze collected metrics and report findings."""
    report = DiagnosticReport()

    if fabric_monitor is not None:
        stats = fabric_monitor.fabric.stats
        if stats.rpc_count > 100:
            per_rpc = fabric_monitor.bytes_per_rpc()
            if per_rpc < SMALL_RPC_BYTES:
                report.findings.append(Finding(
                    "warning", "chatty-client",
                    f"{stats.rpc_count} RPCs averaging {per_rpc:.0f} B "
                    "each; use WriteBatch / batched product loads to "
                    "amortize per-RPC overhead",
                ))
            else:
                report.findings.append(Finding(
                    "info", "traffic",
                    f"{stats.rpc_count} RPCs, {per_rpc:.0f} B average",
                ))
        if stats.dropped:
            report.findings.append(Finding(
                "warning", "fabric-drops",
                f"{stats.dropped} messages dropped (injection bandwidth "
                "oversaturated); throttle concurrent bulk transfers",
            ))

    # Aggregate per-database op counts across providers.
    ops: dict[str, int] = {}
    for monitor in provider_monitors:
        for name, count in monitor.database_ops().items():
            ops[name] = ops.get(name, 0) + count
    loaded = {name: count for name, count in ops.items() if count > 0}
    if len(loaded) >= 2:
        mean = sum(loaded.values()) / len(loaded)
        hottest = max(loaded, key=loaded.get)
        if loaded[hottest] > SKEW_THRESHOLD * mean:
            report.findings.append(Finding(
                "warning", "hot-database",
                f"database {hottest!r} served {loaded[hottest]} ops "
                f"({loaded[hottest] / mean:.1f}x the mean); check "
                "placement keys or workload skew",
            ))
        else:
            report.findings.append(Finding(
                "info", "balance",
                f"{len(loaded)} active databases, hottest at "
                f"{loaded[hottest] / mean:.1f}x the mean load",
            ))

    # Latency tails.
    for monitor in provider_monitors:
        registry = monitor.registry
        for name in registry.names():
            if not name.endswith(".latency"):
                continue
            histogram = registry[name]
            if histogram.count < 10 or histogram.mean <= 0:
                continue
            p99 = histogram.quantile(0.99)
            if p99 != float("inf") and p99 > TAIL_THRESHOLD * histogram.mean:
                report.findings.append(Finding(
                    "warning", "slow-tail",
                    f"{name}: p99 {p99:.2g}s vs mean "
                    f"{histogram.mean:.2g}s",
                ))
    return report
