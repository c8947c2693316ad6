"""Cross-layer distributed tracing (the paper's missing observability).

Aggregate counters (:mod:`repro.monitor.metrics`) say *how much* time a
layer spends; they cannot follow one ``store``/``load``/PEP event
through Mercury -> Margo -> Yokan -> HEPnOS.  This module adds exactly
that:

- :class:`Span` -- one timed operation with tags, belonging to a trace;
- :class:`SpanContext` -- the binary-encodable (trace id, span id) pair
  that crosses the RPC boundary.  :func:`wrap_payload` injects it as an
  optional header in front of Mercury RPC payloads and
  :func:`unwrap_payload` extracts it on delivery, so server-side spans
  parent correctly to the client-side span that issued the RPC;
- :class:`Tracer` -- creates spans with thread-local context nesting
  (each OS thread -- each simulated MPI rank -- has its own stack);
- :class:`TraceCollector` -- records completed spans and exports Chrome
  trace-event JSON, a text tree, and a critical-path summary;
  :func:`repro.monitor.diagnose` reads one for its per-database
  findings.

Zero-overhead contract: nothing here runs unless a tracer is installed.
Instrumented hot paths guard with the module-level :data:`enabled` flag
(one attribute read); :func:`span` returns a shared no-op span when no
tracer is active (``tests/test_tracing.py`` pins the disabled path).
"""

from __future__ import annotations

import itertools
import json
import struct
import threading
import time
from typing import Optional

from repro.errors import ReproError

#: Fast-path flag read by instrumented code.  True iff a tracer is
#: installed via :func:`install_tracer`.
enabled = False

_active_tracer: Optional["Tracer"] = None

# -- wire format -------------------------------------------------------------
#
# A traced RPC payload is framed as  HEADER + 16-byte context + payload.
# Payloads that naturally begin with the 3-byte prefix are escaped with
# ESCAPE so extraction is unambiguous for arbitrary byte strings.

_PREFIX = b"\xc3TR"
TRACE_HEADER = _PREFIX + b"\x01"
TRACE_ESCAPE = _PREFIX + b"\x00"
_CTX_STRUCT = struct.Struct("<QQ")

_ids = itertools.count(1)


def _next_id() -> int:
    return next(_ids)


class SpanContext:
    """The propagated identity of a span: (trace id, span id).

    Binary form is 16 bytes (two little-endian u64), small enough to
    ride in front of every RPC payload.
    """

    __slots__ = ("trace_id", "span_id")
    WIRE_SIZE = _CTX_STRUCT.size

    def __init__(self, trace_id: int, span_id: int):
        self.trace_id = trace_id
        self.span_id = span_id

    def to_bytes(self) -> bytes:
        return _CTX_STRUCT.pack(self.trace_id, self.span_id)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "SpanContext":
        trace_id, span_id = _CTX_STRUCT.unpack(raw)
        return cls(trace_id, span_id)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SpanContext)
                and other.trace_id == self.trace_id
                and other.span_id == self.span_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpanContext(trace={self.trace_id:x}, span={self.span_id:x})"


def wrap_payload(payload: bytes) -> bytes:
    """Frame an outgoing RPC payload with the current span context.

    Called on every ``Engine._forward``.  With no tracer (or no active
    span) the payload passes through untouched unless it collides with
    the header prefix, in which case it is escaped.
    """
    if enabled:
        ctx = current_context()
        if ctx is not None:
            return TRACE_HEADER + ctx.to_bytes() + payload
    if payload[:3] == _PREFIX:
        return TRACE_ESCAPE + payload
    return payload


def unwrap_payload(payload: bytes) -> tuple[Optional[SpanContext], bytes]:
    """Extract ``(context, original payload)`` from a framed payload."""
    if payload[:3] != _PREFIX:
        return None, payload
    if payload[:4] == TRACE_HEADER:
        end = 4 + SpanContext.WIRE_SIZE
        return SpanContext.from_bytes(payload[4:end]), payload[end:]
    if payload[:4] == TRACE_ESCAPE:
        return None, payload[4:]
    return None, payload  # pragma: no cover - unknown frame kind


# -- spans -------------------------------------------------------------------


class Span:
    """One timed operation.  Use as a context manager or call
    :meth:`finish` explicitly."""

    __slots__ = ("tracer", "name", "context", "parent_id", "start", "end",
                 "tags", "error", "thread")

    def __init__(self, tracer: "Tracer", name: str, context: SpanContext,
                 parent_id: Optional[int], tags: dict):
        self.tracer = tracer
        self.name = name
        self.context = context
        self.parent_id = parent_id
        self.tags = tags
        self.error: Optional[str] = None
        self.thread = threading.current_thread().name
        self.start = time.monotonic()
        self.end: Optional[float] = None

    @property
    def trace_id(self) -> int:
        return self.context.trace_id

    @property
    def span_id(self) -> int:
        return self.context.span_id

    @property
    def duration(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def finished(self) -> bool:
        return self.end is not None

    def set_tag(self, key: str, value) -> None:
        self.tags[key] = value

    def finish(self) -> None:
        if self.end is None:
            self.end = time.monotonic()
            self.tracer._finish(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.error = f"{exc_type.__name__}: {exc}"
        self.finish()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r} trace={self.trace_id:x} "
                f"span={self.span_id:x} dur={self.duration * 1e6:.1f}us)")


class _NullSpan:
    """Shared no-op span returned by :func:`span` when tracing is off."""

    __slots__ = ()

    def set_tag(self, key: str, value) -> None:
        pass

    def finish(self) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_SPAN = _NullSpan()

#: Explicit "start a new trace" parent for :meth:`Tracer.span`.  Server
#: handlers use it when an RPC arrives without a trace header: falling
#: back to the thread's ambient span would fabricate a parent link that
#: never crossed the wire (client and server share a thread on the
#: loopback transport).
NO_PARENT = object()


class Tracer:
    """Creates spans; keeps the active span stack in thread-local state."""

    def __init__(self, collector: Optional["TraceCollector"] = None):
        self.collector = collector if collector is not None else TraceCollector()
        self._local = threading.local()

    # -- context ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def current_context(self) -> Optional[SpanContext]:
        current = self.current_span()
        return current.context if current is not None else None

    # -- span creation ----------------------------------------------------

    def span(self, name: str, parent=None, **tags) -> Span:
        """Start (and activate) a span.

        ``parent`` may be a :class:`Span`, a :class:`SpanContext`
        (typically extracted from an incoming RPC), or ``None``, in
        which case the thread's current span is the parent; with no
        current span a new trace begins.
        """
        if parent is None:
            parent = self.current_span()
        if parent is NO_PARENT or parent is None:
            context = SpanContext(_next_id(), _next_id())
            parent_id = None
        else:
            pctx = parent.context if isinstance(parent, Span) else parent
            context = SpanContext(pctx.trace_id, _next_id())
            parent_id = pctx.span_id
        span = Span(self, name, context, parent_id, tags)
        self._stack().append(span)
        return span

    def _finish(self, span: Span) -> None:
        stack = self._stack()
        # Spans normally finish LIFO; tolerate out-of-order finishes
        # (e.g. a span finished from a callback) by removing wherever
        # it sits.
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)
        self.collector.record(span)


# -- module-level tracer management ------------------------------------------


def install_tracer(tracer: Optional[Tracer] = None) -> Tracer:
    """Install the process-wide tracer and flip the fast-path flag."""
    global _active_tracer, enabled
    if tracer is None:
        tracer = Tracer()
    _active_tracer = tracer
    enabled = True
    return tracer


def uninstall_tracer() -> Optional[Tracer]:
    """Remove the installed tracer (tracing reverts to zero overhead)."""
    global _active_tracer, enabled
    tracer, _active_tracer = _active_tracer, None
    enabled = False
    return tracer


def get_tracer() -> Optional[Tracer]:
    return _active_tracer


def current_context() -> Optional[SpanContext]:
    tracer = _active_tracer
    return tracer.current_context() if tracer is not None else None


def current_span() -> Optional[Span]:
    tracer = _active_tracer
    return tracer.current_span() if tracer is not None else None


def span(name: str, parent=None, **tags):
    """Start a span on the installed tracer, or a shared no-op span."""
    tracer = _active_tracer
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, parent=parent, **tags)


class trace_session:
    """Context manager: install a fresh tracer, uninstall on exit.

    ::

        with trace_session() as tracer:
            ...traced work...
        tracer.collector.save("trace.json")
    """

    def __init__(self):
        self.tracer: Optional[Tracer] = None

    def __enter__(self) -> Tracer:
        self.tracer = install_tracer()
        return self.tracer

    def __exit__(self, *exc) -> None:
        uninstall_tracer()


# -- collection and export ---------------------------------------------------


class TraceCollector:
    """Records completed spans; exports and summarizes them."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()

    def record(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def __len__(self) -> int:
        return len(self.spans)

    def clear(self) -> None:
        with self._lock:
            self.spans.clear()

    # -- lookup -----------------------------------------------------------

    def traces(self) -> dict[int, list[Span]]:
        """Spans grouped by trace id, each group in start order."""
        out: dict[int, list[Span]] = {}
        with self._lock:
            spans = list(self.spans)
        for span in sorted(spans, key=lambda s: s.start):
            out.setdefault(span.trace_id, []).append(span)
        return out

    def find(self, name: str) -> list[Span]:
        with self._lock:
            return [s for s in self.spans if s.name == name]

    # -- Chrome trace-event JSON ------------------------------------------

    def chrome_trace(self) -> dict:
        """The collected spans in Chrome trace-event format.

        Load the result (or a :meth:`save`d file) in ``chrome://tracing``
        or https://ui.perfetto.dev.  Complete-duration (``"ph": "X"``)
        events carry span identity in ``args`` so :meth:`load` can
        round-trip the file.
        """
        with self._lock:
            spans = sorted(self.spans, key=lambda s: s.start)
        tids: dict[str, int] = {}
        events = []
        for span in spans:
            tid = tids.setdefault(span.thread, len(tids) + 1)
            args = {str(k): _json_safe(v) for k, v in span.tags.items()}
            args["trace_id"] = format(span.trace_id, "x")
            args["span_id"] = format(span.span_id, "x")
            if span.parent_id is not None:
                args["parent_id"] = format(span.parent_id, "x")
            if span.error is not None:
                args["error"] = span.error
            events.append({
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1,
                "tid": tid,
                "args": args,
            })
        for thread, tid in tids.items():
            events.append({
                "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                "args": {"name": thread},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def to_json(self) -> str:
        return json.dumps(self.chrome_trace(), indent=1)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "TraceCollector":
        """Rebuild a collector from a :meth:`save`d Chrome trace file."""
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        events = doc.get("traceEvents", doc if isinstance(doc, list) else [])
        collector = cls()
        threads = {}
        for event in events:
            if event.get("ph") == "M" and event.get("name") == "thread_name":
                threads[event.get("tid")] = event["args"].get("name", "")
        tracer = Tracer(collector)
        for event in events:
            if event.get("ph") != "X":
                continue
            args = dict(event.get("args", {}))
            try:
                trace_id = int(args.pop("trace_id"), 16)
                span_id = int(args.pop("span_id"), 16)
            except KeyError:
                raise ReproError(
                    f"{path}: not a repro-trace file (events lack span ids)"
                ) from None
            parent = args.pop("parent_id", None)
            error = args.pop("error", None)
            span = Span.__new__(Span)
            span.tracer = tracer
            span.name = event["name"]
            span.context = SpanContext(trace_id, span_id)
            span.parent_id = int(parent, 16) if parent is not None else None
            span.tags = args
            span.error = error
            span.thread = threads.get(event.get("tid"), "main")
            span.start = event["ts"] / 1e6
            span.end = span.start + event.get("dur", 0.0) / 1e6
            collector.spans.append(span)
        return collector

    # -- text tree ---------------------------------------------------------

    def render_tree(self, trace_id: Optional[int] = None,
                    max_spans: int = 200) -> str:
        """Indented text rendering of one trace (or all of them)."""
        lines: list[str] = []
        for tid, spans in self.traces().items():
            if trace_id is not None and tid != trace_id:
                continue
            lines.append(f"trace {tid:x} ({len(spans)} spans)")
            by_parent: dict[Optional[int], list[Span]] = {}
            ids = {s.span_id for s in spans}
            for span in spans:
                parent = span.parent_id if span.parent_id in ids else None
                by_parent.setdefault(parent, []).append(span)
            emitted = 0

            def walk(parent: Optional[int], depth: int) -> None:
                nonlocal emitted
                for span in by_parent.get(parent, ()):
                    if emitted >= max_spans:
                        return
                    emitted += 1
                    tags = " ".join(f"{k}={v}" for k, v in span.tags.items())
                    error = f" ERROR({span.error})" if span.error else ""
                    lines.append(
                        f"  {'  ' * depth}{span.name} "
                        f"[{span.duration * 1e6:.0f}us]"
                        + (f" {tags}" if tags else "") + error
                    )
                    walk(span.span_id, depth + 1)

            walk(None, 0)
            if emitted >= max_spans and len(spans) > emitted:
                lines.append(f"  ... ({len(spans) - emitted} more spans)")
        return "\n".join(lines)

    # -- critical path -----------------------------------------------------

    def critical_path(self, trace_id: Optional[int] = None) -> list[dict]:
        """The dominant root-to-leaf chain of the trace.

        Starting from the longest root span, each step descends into
        the child that finished last (the one the parent actually
        waited on).  Entries report each span's *self* time -- its
        duration minus the time covered by its own children -- which is
        where optimization effort pays off.
        """
        traces = self.traces()
        if not traces:
            return []
        if trace_id is None:
            trace_id = max(
                traces, key=lambda t: sum(s.duration for s in traces[t])
            )
        spans = traces.get(trace_id, [])
        ids = {s.span_id for s in spans}
        children: dict[Optional[int], list[Span]] = {}
        for span in spans:
            parent = span.parent_id if span.parent_id in ids else None
            children.setdefault(parent, []).append(span)
        roots = children.get(None, [])
        if not roots:
            return []
        path = []
        node = max(roots, key=lambda s: s.duration)
        while node is not None:
            kids = children.get(node.span_id, [])
            child_time = sum(k.duration for k in kids)
            path.append({
                "name": node.name,
                "duration": node.duration,
                "self_time": max(0.0, node.duration - child_time),
                "tags": dict(node.tags),
            })
            node = max(kids, key=lambda s: s.end or s.start) if kids else None
        return path

    def summary(self) -> dict:
        """Per-span-name aggregate: count, total and mean duration."""
        with self._lock:
            spans = list(self.spans)
        out: dict[str, dict] = {}
        for span in spans:
            entry = out.setdefault(
                span.name, {"count": 0, "total_seconds": 0.0}
            )
            entry["count"] += 1
            entry["total_seconds"] += span.duration
        for entry in out.values():
            entry["mean_seconds"] = entry["total_seconds"] / entry["count"]
        return out


def _json_safe(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, bytes):
        return value.hex()
    return str(value)


__all__ = [
    "Span",
    "SpanContext",
    "Tracer",
    "TraceCollector",
    "NO_PARENT",
    "NULL_SPAN",
    "TRACE_HEADER",
    "TRACE_ESCAPE",
    "enabled",
    "install_tracer",
    "uninstall_tracer",
    "get_tracer",
    "current_context",
    "span",
    "trace_session",
    "wrap_payload",
    "unwrap_payload",
]
