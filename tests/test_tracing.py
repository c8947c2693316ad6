"""Distributed tracing: span nesting, cross-RPC propagation, exporters,
and the disabled-tracer fast path."""

import json

import pytest

from repro.hepnos import (
    ParallelEventProcessor,
    PEPOptions,
    WriteBatch,
    vector_of,
)
from repro.mercury import Engine, Fabric
from repro.monitor import tracing
from repro.monitor.tracing import (
    NULL_SPAN,
    SpanContext,
    TraceCollector,
    Tracer,
    install_tracer,
    trace_session,
    uninstall_tracer,
    unwrap_payload,
    wrap_payload,
)
from repro.serial import serializable
from repro.yokan import YokanClient, YokanProvider
from repro.yokan.backends.memory import MemoryBackend


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    """Every test leaves the process-wide tracer uninstalled."""
    yield
    uninstall_tracer()
    assert tracing.enabled is False


# -- span basics -------------------------------------------------------------


def test_span_nesting_parents_follow_thread_stack():
    tracer = Tracer()
    with tracer.span("root") as root:
        assert tracer.current_span() is root
        with tracer.span("child") as child:
            assert child.trace_id == root.trace_id
            assert child.parent_id == root.span_id
            with tracer.span("grandchild") as grand:
                assert grand.parent_id == child.span_id
        with tracer.span("sibling") as sib:
            assert sib.parent_id == root.span_id
    assert tracer.current_span() is None
    names = [s.name for s in tracer.collector.spans]
    assert names == ["grandchild", "child", "sibling", "root"]
    assert all(s.finished for s in tracer.collector.spans)


def test_span_records_error_tag():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("failing"):
            raise ValueError("boom")
    (span,) = tracer.collector.spans
    assert span.error == "ValueError: boom"


def test_explicit_parent_context_crosses_threads():
    tracer = Tracer()
    ctx = SpanContext(trace_id=42, span_id=7)
    with tracer.span("server", parent=ctx) as span:
        assert span.trace_id == 42
        assert span.parent_id == 7


def test_no_parent_sentinel_starts_fresh_trace():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner", parent=tracing.NO_PARENT) as inner:
            assert inner.parent_id is None
            assert inner.trace_id != outer.trace_id


# -- wire format -------------------------------------------------------------


def test_span_context_binary_roundtrip():
    ctx = SpanContext(trace_id=0x1234_5678_9ABC_DEF0, span_id=0xFEDC_BA98)
    raw = ctx.to_bytes()
    assert len(raw) == SpanContext.WIRE_SIZE
    assert SpanContext.from_bytes(raw) == ctx


def test_wrap_payload_passthrough_when_disabled():
    assert tracing.enabled is False
    payload = b"ordinary bytes"
    assert wrap_payload(payload) is payload
    assert unwrap_payload(payload) == (None, payload)


def test_wrap_payload_escapes_colliding_prefix():
    # A payload that happens to begin with the header prefix must
    # survive unchanged, traced or not.
    collision = tracing.TRACE_HEADER + b"innocent payload"
    framed = wrap_payload(collision)
    assert framed != collision
    ctx, recovered = unwrap_payload(framed)
    assert ctx is None
    assert recovered == collision


def test_wrap_payload_injects_active_context():
    tracer = install_tracer()
    with tracer.span("op") as span:
        framed = wrap_payload(b"data")
        ctx, recovered = unwrap_payload(framed)
    assert recovered == b"data"
    assert ctx.trace_id == span.trace_id
    assert ctx.span_id == span.span_id


# -- cross-RPC propagation ---------------------------------------------------


def _yokan_pair(fabric):
    server = Engine(fabric, "sm://srv/e")
    YokanProvider(server, provider_id=3, databases={"db": MemoryBackend()})
    client = YokanClient(Engine(fabric, "sm://cli/e"))
    return client.database_handle("sm://srv/e", 3, "db")


@pytest.mark.parametrize("threaded", [False, True],
                         ids=["loopback", "fabric"])
def test_trace_propagates_client_to_server(threaded):
    fabric = Fabric(threaded=threaded)
    handle = _yokan_pair(fabric)
    if threaded:
        fabric.runtime.start()
    try:
        with trace_session() as tracer:
            with tracer.span("app"):
                handle.put(b"k", b"v")
                assert handle.get(b"k") == b"v"
    finally:
        if threaded:
            fabric.runtime.shutdown()

    spans = {}
    for span in tracer.collector.spans:
        spans.setdefault(span.name, span)
    app = spans["app"]
    client_put = spans["yokan.client.put"]
    server_put = spans["yokan.provider.put"]
    # One trace end to end...
    assert client_put.trace_id == app.trace_id
    assert server_put.trace_id == app.trace_id
    # ...with the server span parented to the mercury.forward span that
    # carried its RPC (context crossed inside the payload header).
    forwards = [s for s in tracer.collector.spans
                if s.name == "mercury.forward"]
    assert server_put.parent_id in {f.span_id for f in forwards}
    assert client_put.parent_id == app.span_id
    assert server_put.tags["db"] == "db"


def test_untraced_client_yields_root_server_span():
    """No header on the wire -> the provider span starts its own trace,
    even though client and server share a thread on the loopback."""
    fabric = Fabric()
    handle = _yokan_pair(fabric)
    handle.put(b"k", b"v")  # untraced warm-up
    tracer = install_tracer()
    # Bypass the traced client path: forward a raw RPC with no header.
    from repro.serial import dumps

    raw = fabric.lookup("sm://cli/e")
    rpc = raw.create_handle("sm://srv/e", "yokan.exists")
    rpc.forward(dumps(("db", b"k")), 3)
    provider_spans = tracer.collector.find("yokan.provider.exists")
    assert len(provider_spans) == 1
    # mercury.forward opened a client span, and the wire header parents
    # the provider span to it -- still one connected trace.
    assert provider_spans[0].parent_id is not None
    uninstall_tracer()
    # Now silence the client side entirely: inject a handler-level call.
    tracer2 = install_tracer()
    server = fabric.lookup("sm://srv/e")
    server._deliver(raw.address, "yokan.exists", 3, dumps(("db", b"k")))
    fabric.flush()
    orphan = tracer2.collector.find("yokan.provider.exists")
    assert len(orphan) == 1
    assert orphan[0].parent_id is None


def test_batched_write_trace_covers_flush_and_server(datastore):
    with trace_session() as tracer:
        ds = datastore.create_dataset("tracing/batch")
        with WriteBatch(datastore) as batch:
            run = ds.create_run(1, batch=batch)
            subrun = run.create_subrun(0, batch=batch)
            for e in range(8):
                subrun.create_event(e, batch=batch)
    flushes = tracer.collector.find("hepnos.write_batch.flush")
    assert flushes, "flush span missing"
    flush = flushes[0]
    server_puts = tracer.collector.find("yokan.provider.put_multi")
    assert server_puts, "server-side batched put span missing"
    assert any(s.trace_id == flush.trace_id for s in server_puts)
    assert flush.tags["items"] >= 8


def test_product_spans_tag_shard_and_epoch_only_when_traced(datastore,
                                                            monkeypatch):
    event = (datastore.create_dataset("tracing/point")
             .create_run(1).create_subrun(0).create_event(0))
    lookups = []
    smap = datastore.placement
    monkeypatch.setattr(
        type(smap), "shard_id",
        lambda self, kind, target, _real=type(smap).shard_id:
            lookups.append(kind) or _real(self, kind, target))
    event.store(3.5, label="untraced")
    assert event.load(float, label="untraced") == 3.5
    with WriteBatch(datastore) as batch:    # batched: not written through
        event.store(4.5, label="batched", batch=batch)
    assert lookups == []       # no ring lookup + hash on the untraced path
    with trace_session() as tracer:
        event.store(5.5, label="traced")
        with WriteBatch(datastore) as batch:
            datastore.store_encoded_products([event.key], "float",
                                             [b"\x04" + bytes(8)],
                                             label="encoded", batch=batch)
        assert event.load(float, label="batched") == 4.5
    stores = tracer.collector.find("hepnos.store_product")
    (run,) = tracer.collector.find("hepnos.store_products")
    (load,) = tracer.collector.find("hepnos.load_product")
    assert len(stores) == 1 and len(lookups) == 3
    shard = smap.shard_id("products", smap.product_database_for(event.key))
    for span in stores + [run, load]:
        assert span.tags["epoch"] == smap.epoch
    for span in stores + [load]:
        assert span.tags["shard"] == shard
    assert run.tags["shards"] == [shard]
    assert [s.tags["type"] for s in stores + [run]] == ["float", "float"]
    assert (run.tags["count"], run.tags["label"]) == (1, "encoded")
    assert event.load(float, label="encoded") == 0.0


@serializable("tracing.TestSlice")
class TracedSlice:
    def __init__(self, sid=0):
        self.sid = sid

    def serialize(self, ar):
        self.sid = ar.io(self.sid)


def test_pep_emits_batch_and_event_spans(datastore):
    ds = datastore.create_dataset("tracing/pep")
    with WriteBatch(datastore) as batch:
        run = ds.create_run(1, batch=batch)
        subrun = run.create_subrun(0, batch=batch)
        for e in range(12):
            event = subrun.create_event(e, batch=batch)
            event.store([TracedSlice(e)], label="s", batch=batch)
    with trace_session() as tracer:
        pep = ParallelEventProcessor(
            datastore, options=PEPOptions(input_batch_size=8),
            products=[(vector_of(TracedSlice), "s")],
        )
        seen = []
        pep.process(ds, lambda ev: seen.append(ev.number))
    assert len(seen) == 12
    collector = tracer.collector
    events = collector.find("pep.event")
    assert len(events) == 12
    batches = collector.find("pep.process_batch")
    assert batches and all(e.parent_id in {b.span_id for b in batches}
                           for e in events)
    pages = collector.find("hepnos.prefetch.page")
    assert pages
    # One load span per page, issued before the page is retired (the
    # default PEP configuration prefetches with packed prefix loads).
    loads = collector.find("hepnos.load_products")
    assert len(loads) == len(pages) == 2
    for span in loads:
        assert span.tags["lane"] == "packed"
        assert {"containers", "specs", "databases", "epoch",
                "cache_hits"} <= set(span.tags)
    assert sum(s.tags["containers"] for s in loads) == 12
    # The chain continues below the reader, across the RPC boundary.
    for name in ("yokan.client.list_keys", "mercury.forward",
                 "yokan.provider.load_prefix_packed"):
        assert collector.find(name), f"missing {name} spans"


# -- exporters ---------------------------------------------------------------


@pytest.fixture()
def small_trace():
    tracer = Tracer()
    with tracer.span("root", kind="demo"):
        with tracer.span("step1", items=3):
            pass
        with tracer.span("step2", data=b"\x01\x02"):
            pass
    return tracer.collector


def test_chrome_trace_shape(small_trace):
    doc = small_trace.chrome_trace()
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(events) == 3
    for event in events:
        assert {"name", "cat", "ph", "ts", "dur", "pid", "tid",
                "args"} <= set(event)
        assert "trace_id" in event["args"]
        assert "span_id" in event["args"]
    children = [e for e in events if e["name"] != "root"]
    root = next(e for e in events if e["name"] == "root")
    for child in children:
        assert child["args"]["parent_id"] == root["args"]["span_id"]
    # Tag values are JSON-safe (bytes became hex).
    json.dumps(doc)
    step2 = next(e for e in events if e["name"] == "step2")
    assert step2["args"]["data"] == "0102"
    metadata = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    assert metadata, "thread_name metadata events expected"


def test_chrome_trace_file_roundtrip(small_trace, tmp_path):
    path = str(tmp_path / "trace.json")
    small_trace.save(path)
    loaded = TraceCollector.load(path)
    assert len(loaded) == len(small_trace)
    original = {(s.name, s.span_id, s.parent_id)
                for s in small_trace.spans}
    recovered = {(s.name, s.span_id, s.parent_id) for s in loaded.spans}
    assert recovered == original
    assert loaded.render_tree() != ""


def test_render_tree_and_critical_path(small_trace):
    text = small_trace.render_tree()
    assert "root" in text and "step1" in text
    # Children render indented under the root.
    lines = text.splitlines()
    root_line = next(line for line in lines if "root" in line)
    step_line = next(line for line in lines if "step1" in line)
    assert len(step_line) - len(step_line.lstrip()) > \
        len(root_line) - len(root_line.lstrip())
    path = small_trace.critical_path()
    assert path[0]["name"] == "root"
    assert len(path) == 2
    assert path[0]["self_time"] >= 0.0


# -- disabled fast path ------------------------------------------------------


def test_module_span_returns_shared_null_when_disabled():
    assert tracing.span("anything", key="value") is NULL_SPAN
    # The null span absorbs the full Span surface.
    with tracing.span("x") as sp:
        sp.set_tag("a", 1)
        sp.finish()


def test_install_uninstall_flip_fast_path_flag():
    assert tracing.enabled is False
    tracer = install_tracer()
    assert tracing.enabled is True
    assert tracing.get_tracer() is tracer
    assert uninstall_tracer() is tracer
    assert tracing.enabled is False
    assert tracing.get_tracer() is None


def test_disabled_rpc_leaves_no_spans_and_no_header(fabric):
    handle = _yokan_pair(fabric)
    fabric.runtime.start()
    try:
        handle.put(b"key", b"value")
        assert handle.get(b"key") == b"value"
    finally:
        fabric.runtime.shutdown()
    # Nothing was recording: no tracer, no spans, flag off.
    assert tracing.get_tracer() is None
