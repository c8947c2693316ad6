"""Tests for the data-plane fast paths: packed prefix loads and the
client-side product cache."""

import gc
import struct
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import deploy
from repro.errors import CorruptionError, ProductNotFound
from repro.hepnos import (
    DataStore,
    LoadPlan,
    ParallelEventProcessor,
    PEPOptions,
    Prefetcher,
    ProductCache,
    ProductCacheOptions,
    WriteBatch,
    vector_of,
)
from repro.mercury import Fabric
from repro.serial import serializable
from repro.yokan import YokanProvider, packed


@serializable("dp.Hit")
class Hit:
    def __init__(self, adc=0.0):
        self.adc = adc

    def serialize(self, ar):
        self.adc = ar.io(self.adc)

    def __eq__(self, other):
        return self.adc == other.adc


# -- packed codec ------------------------------------------------------------


class TestPackedCodec:
    def test_roundtrip(self):
        groups = [
            [(b"k1", b"v1"), (b"key-two", b"x" * 300)],
            [],
            [(b"", b""), (b"k", b"v" * 70000)],
        ]
        buf = packed.pack_groups(groups)
        back = packed.unpack_groups(buf, len(groups))
        assert [[(k, bytes(v)) for k, v in g] for g in back] == groups

    def test_values_are_views_over_the_buffer(self):
        buf = packed.pack_groups([[(b"k", b"hello")]])
        [[(_, view)]] = packed.unpack_groups(buf, 1)
        assert isinstance(view, memoryview)
        assert bytes(view) == b"hello"

    def test_truncation_detected(self):
        buf = packed.pack_groups([[(b"key", b"value")]])
        for cut in (1, len(buf) // 2, len(buf) - 1):
            with pytest.raises(CorruptionError):
                packed.unpack_groups(buf[:cut], 1)

    def test_trailing_bytes_detected(self):
        buf = packed.pack_groups([[(b"k", b"v")]])
        with pytest.raises(CorruptionError, match="trailing"):
            packed.unpack_groups(buf + b"\x00", 1)

    @staticmethod
    def _reference_pack(groups):
        """The group layout built with ``struct``: the pair count, the
        key lengths, the value lengths (``u32`` little-endian), then the
        keys and the values."""
        out = b""
        for pairs in groups:
            keys = [key for key, _ in pairs]
            values = [value for _, value in pairs]
            out += struct.pack(f"<{1 + 2 * len(pairs)}I", len(pairs),
                               *map(len, keys), *map(len, values))
            out += b"".join(keys) + b"".join(values)
        return out

    @pytest.mark.parametrize("length",
                             [0, 1, 127, 128, 16383, 16384, 2 ** 21])
    def test_inline_lengths_match_the_generic_encoder(self, length):
        """The lengths a group carries inline, in its table, and the
        bytes after them are what the generic ``struct`` encoder writes,
        for lengths on both sides of every 7-bit boundary."""
        groups = [[(b"k" * length, b"v"), (b"k", b"v" * length)],
                  [(b"", b"")], []]
        buf = packed.pack_groups(groups)
        assert bytes(buf) == self._reference_pack(groups)
        back = packed.unpack_groups(buf, len(groups))
        assert [[(k, bytes(v)) for k, v in g] for g in back] == groups
        keys, values = zip(*groups[0])
        one = packed.pack_columns(keys, values)
        assert type(one) is bytearray
        assert bytes(one) == self._reference_pack(groups[:1])
        assert packed.unpack_columns(one) == (keys, values)

    @pytest.mark.parametrize("field", ["key", "value"])
    @pytest.mark.parametrize("length", [1, 256, 65536],
                             ids=["1-byte", "2-byte", "3-byte"])
    def test_cut_inside_a_length_is_corruption(self, field, length):
        """A buffer cut inside the length table entry of a key or a
        value (``length`` has 1, 2 or 3 significant bytes) is refused
        as truncated, by both decoders."""
        key, value = (b"k" * length, b"v") if field == "key" \
            else (b"k", b"v" * length)
        buf = bytes(packed.pack_groups([[(key, value)]]))
        at = 4 if field == "key" else 8
        assert buf[at:at + 4] == length.to_bytes(4, "little")
        for cut in range(at, at + 4):
            with pytest.raises(CorruptionError, match="truncated"):
                packed.unpack_groups(buf[:cut], 1)
            with pytest.raises(CorruptionError, match="truncated"):
                packed.unpack_columns(buf[:cut])
        with pytest.raises(CorruptionError, match="trailing"):
            packed.unpack_groups(buf + b"\x00", 1)
        with pytest.raises(CorruptionError, match="trailing"):
            packed.unpack_columns(buf + b"\x00")

    def test_a_count_past_the_buffer_is_refused_before_allocating(self):
        buf = struct.pack("<I", 0xFFFFFFFF) + bytes(64)
        tracemalloc.start()
        try:
            with pytest.raises(CorruptionError, match="length table"):
                packed.unpack_columns(buf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


# -- load_prefix_packed RPC --------------------------------------------------


class TestLoadPrefixPacked:
    def test_groups_align_with_prefixes(self, datastore):
        db = datastore._handle(datastore.target_for("products", b"x"))
        db.put(b"ev1#a", b"alpha")
        db.put(b"ev1#b", b"beta")
        db.put(b"ev2#c", b"gamma")
        groups = db.load_prefix_packed([b"ev1", b"ev2", b"none"])
        assert [[(k, bytes(v)) for k, v in g] for g in groups] == [
            [(b"ev1#a", b"alpha"), (b"ev1#b", b"beta")],
            [(b"ev2#c", b"gamma")],
            [],
        ]

    def test_undersized_buffer_retries_transparently(self, datastore):
        db = datastore._handle(datastore.target_for("products", b"x"))
        db.put(b"big#k", b"B" * 50000)
        groups = db.load_prefix_packed([b"big"], size_hint=16)
        assert bytes(groups[0][0][1]) == b"B" * 50000

    def test_empty_prefix_list(self, datastore):
        db = datastore._handle(datastore.target_for("products", b"x"))
        assert db.load_prefix_packed([]) == []

    def test_pushed_bytes_are_the_packed_groups(self, tmp_path,
                                                monkeypatch):
        """The provider packs each prefix as it scans it and pushes the
        buffer it built; the bytes are those of packing the groups
        materialised first -- on the ``map`` backend and on an ``lsm``
        one whose prefixes are spread over a table and the memtable."""
        stored = {b"ev1#a": b"alpha", b"ev1#b": b"beta" * 300,
                  b"ev2#c": b"gamma", b"ev3#d": b""}
        prefixes = [b"ev1", b"none", b"ev2", b"ev3"]
        pushed = []
        real = YokanProvider._push_back

        def spy(self, req, bulk, buffer, count, needed):
            pushed.append(bytes(buffer))
            return real(self, req, bulk, buffer, count, needed)

        monkeypatch.setattr(YokanProvider, "_push_back", spy)
        for backend in ("map", "lsm"):
            fabric = Fabric()
            servers = deploy(fabric, backend=backend,
                             storage_root=str(tmp_path / backend))
            try:
                datastore = DataStore.connect(fabric, servers)
                target = datastore.target_for("products", b"x")
                db = datastore._handle(target)
                if backend == "lsm":
                    # An older value and a tombstone in a table, under
                    # what the memtable then takes.
                    db.put(b"ev1#b", b"stale")
                    db.put(b"ev2#gone", b"x")
                    db.erase(b"ev2#gone")
                    for server in servers:
                        for provider in server.providers.values():
                            for lsm in provider.databases.values():
                                lsm.flush_memtable()
                for key, value in stored.items():
                    db.put(key, value)
                pushed.clear()
                db.load_prefix_packed(prefixes, size_hint=4096)
                assert pushed == [bytes(packed.pack_groups(
                    [sorted((k, v) for k, v in stored.items()
                            if k.startswith(p)) for p in prefixes]))]
            finally:
                for server in servers:
                    server.shutdown()

    def test_waited_future_leaves_no_reference_cycle(self):
        """Regression: the retry loop of ``OperationFuture.wait`` was a
        closure that called itself, so every waited future -- with its
        result and its landing buffer -- lived until the cyclic
        collector ran."""
        fabric = Fabric()  # inline: no other thread holds a reference
        datastore = DataStore.connect(fabric, deploy(fabric))
        db = datastore._handle(datastore.target_for("products", b"x"))
        db.put(b"big#k", b"B" * 50000)
        gc.collect()
        gc.disable()
        try:
            # An undersized buffer takes the resize re-issue too.
            future = db.load_prefix_packed_nb([b"big"], size_hint=16)
            assert bytes(future.wait()[0][0][1]) == b"B" * 50000
            alive = weakref.ref(future)
            del future
            assert alive() is None
        finally:
            gc.enable()


# -- ProductCache ------------------------------------------------------------


class TestProductCache:
    def test_lru_eviction_by_entries(self):
        cache = ProductCache(max_bytes=1 << 20, max_entries=2)
        cache.put(b"a", b"1")
        cache.put(b"b", b"2")
        assert cache.get(b"a") == b"1"  # refreshes a
        cache.put(b"c", b"3")  # evicts b (least recently used)
        assert cache.get(b"b") is None
        assert cache.get(b"a") == b"1"
        assert cache.get(b"c") == b"3"

    def test_byte_bound_evicts(self):
        cache = ProductCache(max_bytes=10, max_entries=100)
        cache.put(b"a", b"x" * 6)
        cache.put(b"b", b"y" * 6)  # 12 > 10: evicts a
        assert cache.get(b"a") is None
        assert cache.get(b"b") == b"y" * 6
        assert cache.cached_bytes == 6

    def test_oversized_value_skipped(self):
        cache = ProductCache(max_bytes=4, max_entries=8)
        cache.put(b"k", b"toolarge")
        assert cache.get(b"k") is None
        assert len(cache) == 0

    def test_replacement_updates_bytes(self):
        cache = ProductCache(max_bytes=100, max_entries=8)
        cache.put(b"k", b"x" * 50)
        cache.put(b"k", b"y" * 10)
        assert cache.cached_bytes == 10
        assert cache.get(b"k") == b"y" * 10

    def test_metrics(self):
        from repro.monitor.metrics import MetricRegistry

        metrics = MetricRegistry("test")
        cache = ProductCache(max_bytes=1 << 20, max_entries=2, metrics=metrics)
        cache.put(b"a", b"12345")
        cache.get(b"a")
        cache.get(b"missing")
        cache.put(b"b", b"x")
        cache.put(b"c", b"y")  # evicts a
        get = lambda name: metrics.counter(f"hepnos.product_cache.{name}").value
        assert get("hits") == 1
        assert get("misses") == 1
        assert get("hit_bytes") == 5
        assert get("insertions") == 3
        assert get("evictions") == 1
        assert metrics.gauge("hepnos.product_cache.entries").value == 2

    def test_invalidate_of_an_uncached_key_touches_nothing(self):
        from repro.monitor.metrics import MetricRegistry

        metrics = MetricRegistry("test")
        cache = ProductCache(max_bytes=1 << 20, max_entries=8, metrics=metrics)
        cache.put(b"a", b"12345")
        cache.put_columns([([b"b"], [2], {"x": np.array([1, 2])})])
        writes = []
        for name in ("product_cache.bytes", "product_cache.entries",
                     "column_cache.bytes", "column_cache.entries"):
            gauge = metrics.gauge(f"hepnos.{name}")
            gauge.set = lambda value, _name=name: writes.append(_name)
        cache.invalidate(b"never-cached")
        assert writes == []
        assert cache.get(b"a") == b"12345"
        cache.invalidate(b"a")      # a whole-product entry
        cache.invalidate(b"b")      # a key with only projected columns
        assert len(writes) == 8
        assert len(cache) == 0 and cache.cached_bytes == 0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from([b"k%d" % i for i in range(6)]),
                    max_size=12),
           st.lists(st.sampled_from([b"k%d" % i for i in range(10)]),
                    max_size=12))
    def test_get_many_is_a_get_loop(self, cached, page):
        """Over a mixed hit/miss page (repeats included), ``get_many``
        answers, counts and refreshes the LRU as a ``get`` per key does
        on a twin cache -- with one update per counter."""
        from repro.monitor.metrics import MetricRegistry

        twins = []
        for _ in range(2):
            metrics = MetricRegistry("test")
            cache = ProductCache(max_bytes=1 << 20, max_entries=8,
                                 metrics=metrics)
            for key in cached:
                cache.put(key, key * (1 + len(key) % 3))
            twins.append((cache, metrics))
        (many, many_metrics), (loop, loop_metrics) = twins
        incs = []
        for name in ("hits", "misses", "hit_bytes"):
            counter = many_metrics.counter(f"hepnos.product_cache.{name}")
            inc = counter.inc
            counter.inc = lambda amount=1, _inc=inc, _name=name: (
                incs.append(_name), _inc(amount))
        assert many.get_many(page) == [loop.get(key) for key in page]
        assert sorted(incs) == sorted(set(incs)), "one inc per counter"
        for name in ("hits", "misses", "hit_bytes"):
            counter = f"hepnos.product_cache.{name}"
            assert (many_metrics.counter(counter).value
                    == loop_metrics.counter(counter).value), name
        assert list(many._entries) == list(loop._entries), "LRU order"

    def test_bounds_validated(self):
        from repro.errors import HEPnOSError

        with pytest.raises(ValueError):
            ProductCache(max_bytes=0, max_entries=1)
        with pytest.raises(HEPnOSError):
            ProductCacheOptions(max_entries=0)


# -- the column cache against a per-product model ------------------------------

#: product keys answers and pages draw from; dtypes of a projected column
_POOL = [b"k%d" % i for i in range(8)]
_KINDS = {"f8": np.float64, "i4": np.int32}


def _charge_per_row(kinds: dict) -> int:
    """The bytes one row of a product of ``kinds`` costs."""
    return sum(np.dtype(_KINDS[kind]).itemsize for kind in kinds.values())


_answers = st.lists(st.tuples(
    st.lists(st.sampled_from(_POOL), min_size=1, max_size=6),
    st.dictionaries(st.sampled_from(_POOL), st.integers(0, 3)),
    st.dictionaries(st.sampled_from("ab"), st.sampled_from(sorted(_KINDS)),
                    min_size=1)), min_size=1, max_size=3)
_steps = st.lists(st.one_of(
    st.tuples(st.just("put_columns"), _answers),
    st.tuples(st.just("lookup"),
              st.lists(st.sampled_from(_POOL), max_size=10),
              st.lists(st.sampled_from("ab"), min_size=1, max_size=2,
                       unique=True)),
    st.tuples(st.just("invalidate"), st.sampled_from(_POOL)),
    st.tuples(st.just("put"), st.sampled_from(_POOL),
              st.integers(1, 100)),
), max_size=25)


class TestColumnCacheModel:
    """Scan answers are cached as runs; every page a lookup assembles
    must read as a plain ``{product key: {field: rows}}`` model does,
    with the newest answer of a key winning and no field merging."""

    @settings(max_examples=200, deadline=None)
    @given(steps=_steps, tight=st.booleans(),
           max_bytes=st.integers(1, 300), max_entries=st.integers(1, 6))
    def test_pages_read_as_the_per_product_model(self, steps, tight,
                                                 max_bytes, max_entries):
        from repro.hepnos.column_block import PRESENT, ColumnBlock
        from repro.monitor.metrics import MetricRegistry

        if not tight:
            max_bytes, max_entries = 1 << 30, 1 << 20
        metrics = MetricRegistry("test")
        cache = ProductCache(max_bytes=max_bytes, max_entries=max_entries,
                             metrics=metrics)
        model: dict = {}
        counter = lambda name: metrics.counter(
            f"hepnos.column_cache.{name}").value
        for version, step in enumerate(steps):
            if step[0] == "put_columns":
                answers = []
                for keys, counts, kinds in step[1]:
                    per_row = _charge_per_row(kinds)
                    rows = {key: counts.get(key, 1) for key in keys}
                    columns = {}
                    for f, (field, kind) in enumerate(sorted(kinds.items())):
                        values = [version * 10000 + _POOL.index(key) * 100
                                  + f * 10 + r
                                  for key in keys for r in range(rows[key])]
                        columns[field] = np.array(values, dtype=_KINDS[kind])
                    answers.append((keys, [rows[key] for key in keys],
                                    columns))
                    for key in keys:
                        if rows[key] * per_row > max_bytes:
                            model.pop(key, None)
                            continue
                        model[key] = {
                            field: [version * 10000 + _POOL.index(key) * 100
                                    + f * 10 + r for r in range(rows[key])]
                            for f, field in enumerate(sorted(kinds))}
                cache.put_columns(answers)
                for keys, counts, columns in answers:
                    for col in columns.values():
                        assert col.flags.writeable  # the caller's own
            elif step[0] == "lookup":
                _, page, fields = step
                hits0, misses0 = counter("hits"), counter("misses")
                groups = cache.lookup_columns(page, fields)
                block = ColumnBlock.from_groups(fields, len(page), groups, {})
                hits = sum(len(indices) for indices, _, _ in groups)
                assert counter("hits") - hits0 == hits
                assert counter("misses") - misses0 == len(page) - hits
                for indices, counts, rows in groups:
                    for col in rows.values():
                        assert not col.flags.writeable
                for i, key in enumerate(page):
                    cached = model.get(key)
                    answerable = (cached is not None
                                  and set(fields) <= set(cached))
                    if block.present[i] is PRESENT:
                        assert answerable
                        got = block.event_columns(i)
                        for field in fields:
                            assert got[field].tolist() == cached[field]
                    else:
                        assert tight or not answerable
            elif step[0] == "invalidate":
                cache.invalidate(step[1])
                model.pop(step[1], None)
            else:
                cache.put(b"bytes:" + step[1], b"x" * step[2])
            self._check_state(cache, metrics, model)

    def test_threads_share_one_cache(self):
        """More threads than cores, switching often: no lookup reads
        another key's rows, and the bookkeeping survives."""
        import random
        import sys
        import threading

        from repro.monitor.metrics import MetricRegistry

        metrics = MetricRegistry("test")
        cache = ProductCache(max_bytes=4000, max_entries=24, metrics=metrics)
        pool = [b"s%d" % i for i in range(32)]
        torn = []

        def worker(seed):
            rng = random.Random(seed)
            for _ in range(600):
                keys = rng.sample(pool, rng.randint(1, 8))
                op = rng.random()
                if op < 0.4:
                    counts = [pool.index(key) % 4 for key in keys]
                    rows = [pool.index(key) * 100 + r
                            for key, n in zip(keys, counts) for r in range(n)]
                    cache.put_columns([(keys, counts, {
                        "x": np.array(rows, dtype=np.int64)})])
                elif op < 0.8:
                    for indices, counts, rows in cache.lookup_columns(
                            keys, ["x"]):
                        want = [pool.index(keys[i]) * 100 + r
                                for i, n in zip(indices, counts)
                                for r in range(n)]
                        if rows["x"].tolist() != want:
                            torn.append((keys, indices, rows))
                elif op < 0.9:
                    cache.invalidate(*keys)
                else:
                    cache.put(b"bytes:" + keys[0], b"v" * rng.randint(1, 99))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,))
                       for seed in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not torn
        self._check_state(cache, metrics, None)

    @staticmethod
    def _check_state(cache, metrics, model) -> None:
        gauge = lambda name: metrics.gauge(f"hepnos.{name}").value
        runs = [entry for key, entry in cache._entries.items()
                if isinstance(key, int)]
        for pkey, pos in cache._index.items():
            run, = [run for run in runs
                    if run.base <= pos < run.base + len(run.keys)]
            p = pos - run.base
            lo, hi = run.offsets[p], run.offsets[p + 1]
            assert run.keys[p] == pkey
            if model is not None:
                assert {field: list(col[lo:hi]) for field, col
                        in run.columns.items()} == model[pkey]
        values = [entry for key, entry in cache._entries.items()
                  if isinstance(key, bytes)]
        run_bytes = 0
        for run in runs:
            live = [p for p in range(len(run.keys))
                    if cache._index.get(run.keys[p]) == run.base + p]
            assert run.live == len(live) > 0
            per_row = sum(col.itemsize for col in run.columns.values())
            assert run.size == int(run.offsets[-1]) * per_row
            run_bytes += run.size
            for col in run.columns.values():
                assert col.dtype.kind in "biuf" and not col.flags.writeable
        products = len(values) + len(cache._index)
        assert cache.cached_column_entries == len(cache._index)
        assert len(cache) == products <= cache.max_entries
        total = run_bytes + sum(len(value) for value in values)
        assert cache.cached_bytes == total <= cache.max_bytes
        assert gauge("column_cache.bytes") == run_bytes
        assert gauge("column_cache.entries") == len(cache._index)
        assert gauge("product_cache.bytes") == total
        assert gauge("product_cache.entries") == products


# -- DataStore integration ---------------------------------------------------


class TestDataStoreCache:
    def test_repeated_load_served_from_cache(self, fabric, datastore):
        event = (datastore.create_dataset("dc").create_run(1)
                 .create_subrun(1).create_event(1))
        event.store(Hit(4.25), label="h")
        assert event.load(Hit, label="h") == Hit(4.25)
        fabric.stats.reset()
        for _ in range(5):
            assert event.load(Hit, label="h") == Hit(4.25)
        # Store-side write-through + load-side insert: all hits, no RPCs.
        assert fabric.stats.rpc_count == 0
        hits = datastore.metrics.counter("hepnos.product_cache.hits").value
        assert hits >= 5

    def test_disabled_cache_always_fetches(self, fabric, service):
        datastore = DataStore.connect(
            fabric, service,
            product_cache=ProductCacheOptions(enabled=False),
        )
        assert datastore._product_cache is None
        event = (datastore.create_dataset("dc2").create_run(1)
                 .create_subrun(1).create_event(1))
        event.store(Hit(1.0), label="h")
        fabric.stats.reset()
        event.load(Hit, label="h")
        event.load(Hit, label="h")
        assert fabric.stats.rpc_count == 2

    def test_batch_loads_read_but_do_not_populate(self, fabric, datastore):
        subrun = (datastore.create_dataset("dc3").create_run(1)
                  .create_subrun(1))
        with WriteBatch(datastore) as batch:
            for i in range(8):
                event = subrun.create_event(i, batch=batch)
                event.store(Hit(float(i)), label="h", batch=batch)
        keys = [ev.key for ev in subrun]
        out = datastore.load_products(LoadPlan(keys, [(Hit, "h")]))
        assert [h.adc for h in out["dp.Hit", "h"]] == [
            float(i) for i in range(8)]
        # Scan resistance: the streaming load inserted nothing.
        assert len(datastore._product_cache) == 0


class TestLoadProductsPacked:
    def test_matches_bulk_loads(self, datastore):
        subrun = (datastore.create_dataset("pk").create_run(1)
                  .create_subrun(1))
        with WriteBatch(datastore) as batch:
            for i in range(20):
                event = subrun.create_event(i, batch=batch)
                event.store([Hit(float(i)), Hit(-float(i))], label="hits",
                            batch=batch)
                if i % 2 == 0:
                    event.store(Hit(99.0), label="flag", batch=batch)
        keys = [ev.key for ev in subrun]
        specs = [(vector_of(Hit), "hits"), (Hit, "flag")]
        out = datastore.load_products_packed(keys, specs)
        # The exact-key lane is the reference: one plan, every spec.
        assert out == datastore.load_products(LoadPlan(keys, specs))
        assert [h.adc for h in out["dp.Hit", "flag"] if h is not None] == [
            99.0] * 10

    def test_pep_packed_and_unpacked_agree(self, datastore):
        ds = datastore.create_dataset("pk2")
        with WriteBatch(datastore) as batch:
            subrun = ds.create_run(1, batch=batch).create_subrun(1,
                                                                 batch=batch)
            for i in range(30):
                event = subrun.create_event(i, batch=batch)
                event.store([Hit(float(i))], label="hits", batch=batch)

        def run(options):
            seen = []
            pep = ParallelEventProcessor(
                datastore, options=options,
                products=[(vector_of(Hit), "hits")],
            )
            pep.process(ds, lambda ev: seen.append(
                (ev.triple(), [h.adc for h in ev.load(vector_of(Hit),
                                                      label="hits")])
            ))
            return sorted(seen)

        fast = run(PEPOptions(input_batch_size=16))
        slow = run(PEPOptions(input_batch_size=16, packed_loads=False))
        assert fast == slow
        assert len(fast) == 30

    def test_prefetcher_packed_and_unpacked_agree(self, datastore):
        subrun = (datastore.create_dataset("pk3").create_run(1)
                  .create_subrun(1))
        with WriteBatch(datastore) as batch:
            for i in range(12):
                event = subrun.create_event(i, batch=batch)
                if i % 3:
                    event.store(Hit(float(i)), label="h", batch=batch)

        def run(options):
            out = []
            prefetcher = Prefetcher(datastore, options=options,
                                    products=[(Hit, "h")])
            for ev in prefetcher.events(subrun):
                try:
                    out.append((ev.number, ev.load(Hit, label="h").adc))
                except ProductNotFound:
                    out.append((ev.number, None))
            return out

        fast = run(PEPOptions(input_batch_size=5))
        slow = run(PEPOptions(input_batch_size=5, packed_loads=False))
        assert fast == slow
        assert len(fast) == 12
