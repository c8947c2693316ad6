"""Monitoring and performance diagnostics (the SymbioMon stand-in).

The paper (section V) credits a composable monitoring service [5] with
diagnosing early HEPnOS performance problems, which led to the batching
and parallel-event-processing optimizations.  This package provides the
same capability for this stack without a second instrumentation layer:

- :class:`MetricRegistry` -- the counters and gauges a client keeps
  (``DataStore.metrics``, the broker's admission counts);
- :mod:`repro.monitor.tracing` -- cross-layer distributed tracing:
  spans that follow one operation client -> server across the RPC
  boundary, with Chrome-trace export and critical-path analysis;
- :func:`diagnose` -- the analysis pass over the fabric's traffic
  counters (``fabric.stats``) and one trace (its ``yokan.provider.*``
  spans): finds chatty (unbatched) clients, fabric drops, hot
  databases and slow tails, and says so.
"""

from repro.monitor.metrics import (
    Counter,
    Gauge,
    MetricRegistry,
)
from repro.monitor import tracing
from repro.monitor.tracing import (
    Span,
    SpanContext,
    TraceCollector,
    Tracer,
    install_tracer,
    trace_session,
    uninstall_tracer,
)
from repro.monitor.diagnose import DiagnosticReport, diagnose

__all__ = [
    "Counter",
    "Gauge",
    "MetricRegistry",
    "Span",
    "SpanContext",
    "TraceCollector",
    "Tracer",
    "install_tracer",
    "trace_session",
    "tracing",
    "uninstall_tracer",
    "DiagnosticReport",
    "diagnose",
]
