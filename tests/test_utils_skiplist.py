"""Unit, property and concurrency tests for the sorted map."""

import bisect
import contextlib
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import SortedMap
from repro.utils import sortedmap


def test_empty_map():
    m = SortedMap()
    assert len(m) == 0
    assert not m
    assert b"a" not in m
    assert m.get(b"a") is None
    assert list(m.scan()) == []


def test_set_get_contains():
    m = SortedMap()
    m[b"hello"] = 1
    m[b"world"] = 2
    assert len(m) == 2
    assert m[b"hello"] == 1
    assert m[b"world"] == 2
    assert b"hello" in m
    assert b"missing" not in m
    with pytest.raises(KeyError):
        m[b"missing"]


def test_overwrite_keeps_length():
    m = SortedMap()
    m[b"k"] = 1
    m[b"k"] = 2
    assert len(m) == 1
    assert m[b"k"] == 2


def test_delete():
    m = SortedMap()
    for i in range(10):
        m[bytes([i])] = i
    del m[bytes([5])]
    assert len(m) == 9
    assert bytes([5]) not in m
    with pytest.raises(KeyError):
        del m[bytes([5])]


def test_pop():
    m = SortedMap()
    m[b"a"] = 1
    assert m.pop(b"a") == 1
    assert m.pop(b"a", "default") == "default"
    with pytest.raises(KeyError):
        m.pop(b"a")


def test_non_bytes_key_rejected():
    m = SortedMap()
    with pytest.raises(TypeError):
        m["string"] = 1


def test_ordered_iteration():
    m = SortedMap()
    keys = [b"delta", b"alpha", b"charlie", b"bravo"]
    for i, k in enumerate(keys):
        m[k] = i
    assert list(m.keys()) == sorted(keys)
    assert [v for _, v in m.scan()] == [1, 3, 2, 0]


def test_seek_lower_bound():
    m = SortedMap()
    for k in (b"b", b"d", b"f"):
        m[k] = k
    assert next(m.scan(b"a")) == (b"b", b"b")
    assert next(m.scan(b"b")) == (b"b", b"b")
    assert next(m.scan(b"c")) == (b"d", b"d")
    assert next(m.scan(b"g"), None) is None


def test_scan_exclusive_start():
    m = SortedMap()
    for k in (b"a", b"b", b"c"):
        m[k] = 1
    assert [k for k, _ in m.scan(b"b", inclusive=False)] == [b"c"]
    assert [k for k, _ in m.scan(b"b", inclusive=True)] == [b"b", b"c"]


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.binary(min_size=0, max_size=12), st.integers()))
def test_matches_builtin_dict(model):
    m = SortedMap()
    for k, v in model.items():
        m[k] = v
    assert len(m) == len(model)
    assert list(m.keys()) == sorted(model.keys())
    for k, v in model.items():
        assert m[k] == v


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["set", "del"]),
            st.binary(min_size=1, max_size=4),
            st.integers(),
        ),
        max_size=200,
    )
)
def test_mixed_ops_match_dict(ops):
    m = SortedMap()
    model = {}
    for op, key, value in ops:
        if op == "set":
            m[key] = value
            model[key] = value
        else:
            if key in model:
                del m[key]
                del model[key]
            else:
                with pytest.raises(KeyError):
                    del m[key]
    assert list(m.scan()) == sorted(model.items())


@settings(max_examples=100, deadline=None)
@given(
    st.sets(st.binary(min_size=0, max_size=8)),
    st.binary(min_size=0, max_size=8),
)
def test_seek_is_lower_bound(keys, probe):
    m = SortedMap()
    for k in keys:
        m[k] = True
    expected = min((k for k in keys if k >= probe), default=None)
    got = next(m.scan(probe), None)
    assert (got[0] if got else None) == expected


@contextlib.contextmanager
def small_chunks():
    """Chunks of at most 4 keys, so a few dozen keys span many chunks."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sortedmap, "_CHUNK", 4)
        patch.setattr(sortedmap, "_SCAN_STEP", 1)
        yield


def _expected_scan(model, start, inclusive):
    return [(k, model[k]) for k in sorted(model)
            if k > start or (inclusive and k == start)]


@settings(max_examples=60, deadline=None)
@given(keys=st.lists(st.binary(min_size=1, max_size=3), min_size=13,
                     max_size=60, unique=True),
       order=st.sampled_from(["ascending", "descending", "random"]),
       data=st.data())
def test_small_chunks_match_dict(keys, order, data):
    with small_chunks():
        _check_small_chunks(keys, order, data)


def _check_small_chunks(keys, order, data):
    if order == "ascending":
        keys = sorted(keys)
    elif order == "descending":
        keys = sorted(keys, reverse=True)
    m = SortedMap()
    model = {}
    for n, key in enumerate(keys):
        m[key] = n
        model[key] = n
    assert len(m._chunks) >= 3
    assert list(m.scan()) == sorted(model.items())
    probes = set(model) | {k + b"\x00" for k in model} | {b"", b"\xff" * 4}
    for probe in probes:
        for inclusive in (True, False):
            assert list(m.scan(probe, inclusive)) == \
                _expected_scan(model, probe, inclusive)
    for key in data.draw(st.permutations(keys)):
        del m[key]
        del model[key]
        assert list(m.scan()) == sorted(model.items())
        assert key not in m
    assert len(m) == 0 and list(m.scan()) == []
    m[b"again"] = 1  # emptied chunks take keys again
    assert list(m.scan()) == [(b"again", 1)]


STABLE = [b"s%03d" % i for i in range(0, 400, 4)]


def _flip(m, rng):
    """One writer step: insert or erase a key between two stable keys
    (inserts split the chunk they land in once it is full)."""
    key = b"s%03d+%d" % (rng.randrange(400), rng.randrange(7))
    if key in m:
        del m[key]
    else:
        m[key] = False


def _check_scan(keys, start=None):
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert {k for k in STABLE if start is None or k > start} <= set(keys)


def _stable_map():
    m = SortedMap()
    for key in STABLE:
        m[key] = True
    return m


@small_chunks()
def test_scan_survives_writes_between_next_calls():
    """Puts, erases and splits between two ``next()`` calls of a scan."""
    rng = random.Random(7)
    m = _stable_map()
    for n in range(100):
        start = STABLE[n % len(STABLE)] if n % 2 else b""
        keys = []
        for key, _ in m.scan(start, inclusive=False):
            keys.append(key)
            for _ in range(rng.randrange(4)):
                _flip(m, rng)
        _check_scan(keys, start)


@pytest.mark.parametrize("shift", ["left", "right"])
def test_scan_redoes_a_bisect_the_writer_moved(monkeypatch, shift):
    """The writer lands between a bisect and the copy it positions: it
    erases a key before the index (the chunk shifts left) or inserts
    more keys below it than the copy holds (it shifts right).  The scan
    still yields every key once, in order."""
    m = SortedMap()
    keys = [b"k%02d" % i for i in range(0, 40, 2)]
    for key in keys:
        m[key] = True
    first_copy = keys[sortedmap._SCAN_STEP - 1]  # the last key it holds
    moved: list = []

    def bisect_then_write(a, x):
        index = bisect.bisect_right(a, x)
        if x == first_copy and a is m._chunks[0] and not moved:
            moved.append(shift)
            if shift == "left":
                del m[keys[0]]
            else:
                for n in range(4 * sortedmap._SCAN_STEP):
                    m[keys[0] + b"+%02d" % n] = False
        return index

    monkeypatch.setattr(sortedmap, "bisect_right", bisect_then_write)
    assert [k for k, _ in m.scan()] == keys
    assert moved


@small_chunks()
def test_scan_sees_every_key_mid_split():
    """A scan taken while a split is half done -- before and after the
    upper half is inserted as its own chunk -- holds every key once."""
    rng = random.Random(11)
    m = _stable_map()
    seen: list = []

    class ScannedOnInsert(list):
        def insert(self, index, chunk):
            seen.append([k for k, _ in m.scan()])
            super().insert(index, chunk)
            seen.append([k for k, _ in m.scan()])

    m._chunks = ScannedOnInsert(m._chunks)
    for _ in range(400):
        _flip(m, rng)
    assert len(seen) > 20
    for keys in seen:
        _check_scan(keys)


@small_chunks()
def test_scan_survives_a_concurrent_writer():
    """A writer thread inserts, erases and splits while a reader thread
    scans: every scan is strictly increasing, holds every key present
    throughout, and never raises."""
    m = _stable_map()
    stop = threading.Event()
    errors: list = []

    def writer():
        rng = random.Random(3)
        while not stop.is_set():
            _flip(m, rng)

    def reader():
        try:
            for n in range(100):
                _check_scan([k for k, _ in m.scan()])
                start = STABLE[n % len(STABLE)]
                _check_scan([k for k, _ in m.scan(start, inclusive=False)],
                            start)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # preempt as often as the interpreter can
    w = threading.Thread(target=writer)
    r = threading.Thread(target=reader)
    try:
        w.start()
        r.start()
        r.join(timeout=120)
    finally:
        stop.set()
        w.join(timeout=10)
        sys.setswitchinterval(switch)
    assert not r.is_alive() and not w.is_alive()
    assert not errors, errors[0]


# -- batch updates ------------------------------------------------------------


def _check_chunks(m):
    """Every chunk sorted and at most ``_CHUNK`` keys, every key inside
    its chunk's bounds, and the chunks holding exactly the map's keys."""
    assert len(m._chunks) == len(m._maxes)
    low = None
    for chunk, bound in zip(m._chunks, m._maxes):
        assert len(chunk) <= sortedmap._CHUNK
        assert all(a < b for a, b in zip(chunk, chunk[1:]))
        assert not chunk or (chunk[-1] <= bound
                             and (low is None or chunk[0] > low))
        low = bound
    assert sum(map(len, m._chunks)) == len(m)


def _batch(present, fresh, layout, rng):
    """A batch of ``(key, value)`` pairs laid out as ``layout`` says,
    drawing new keys from ``fresh`` and overwriting some of
    ``present``."""
    keys = list(fresh)
    if layout == "ascending":
        keys.sort()
    elif layout == "interleaved":
        keys = sorted(keys + [k + b"\x00" for k in present])
    elif layout == "duplicates":
        keys = keys + rng.sample(keys, len(keys) // 2) + present[:3]
        rng.shuffle(keys)
    else:  # random, with a few present keys overwritten
        keys = keys + present[::3]
        rng.shuffle(keys)
    return [(key, rng.randrange(1000)) for key in keys]


@settings(max_examples=80, deadline=None)
@given(before=st.lists(st.binary(min_size=1, max_size=3), max_size=40,
                       unique=True),
       batches=st.lists(st.tuples(
           st.lists(st.binary(min_size=1, max_size=3), max_size=40,
                    unique=True),
           st.sampled_from(["random", "ascending", "interleaved",
                            "duplicates", "appended"])),
           min_size=1, max_size=4),
       seed=st.integers(0, 2 ** 16))
def test_update_matches_a_setitem_loop(before, batches, seed):
    """``update(pairs)`` leaves the map a ``__setitem__`` loop over the
    same pairs leaves, and answers the values it replaced; the batches
    cross chunk splits (chunks of 4), overwrite present keys and land in
    chunks that erases emptied."""
    rng = random.Random(seed)
    with small_chunks():
        m, model = SortedMap(), SortedMap()
        for key in before:
            m[key] = model[key] = -1
        for fresh, layout in batches:
            erased = [k for k, _ in model.scan()]
            low = rng.randrange(len(erased) + 1)
            for key in erased[low:low + rng.randrange(7)]:
                del m[key], model[key]
            present = [k for k, _ in model.scan()]
            if layout == "appended":  # past the last key, as ingest sends
                top = present[-1] if present else b""
                fresh = [top + b"\xff" + k for k in sorted(fresh)]
            pairs = _batch(present, fresh, layout, rng)
            old = {k: model[k] for k, _ in pairs if k in model}
            for key, value in pairs:
                model[key] = value
            assert m.update(pairs) == old
            assert list(m.scan()) == list(model.scan())
            _check_chunks(m)
    assert len(m) == len(model)


def test_update_refuses_a_key_that_is_not_bytes():
    m = SortedMap()
    m[b"a"] = 1
    with pytest.raises(TypeError):
        m.update([(b"b", 2), ("c", 3)])
    assert list(m.scan()) == [(b"a", 1)]   # nothing of the batch landed


@small_chunks()
def test_scan_sees_every_key_once_across_batch_updates():
    """Batch updates -- appends past the last key, keys between the
    present ones, overwrites -- between two ``next()`` calls of a scan:
    it yields every key present throughout exactly once, in order."""
    rng = random.Random(5)
    m = _stable_map()
    for n in range(60):
        start = STABLE[n % len(STABLE)] if n % 2 else b""
        keys = []
        for key, _ in m.scan(start, inclusive=False):
            keys.append(key)
            if rng.randrange(3) == 0:
                top = b"s%03d" % rng.randrange(400)
                m.update([(top + b"+%d" % rng.randrange(9), n)
                          for _ in range(rng.randrange(1, 12))]
                         + [(rng.choice(STABLE), n)]
                         + [(b"t%04d" % (n * 20 + i), n)
                            for i in range(rng.randrange(6))])
        _check_scan(keys, start)
        assert len(keys) == len(set(keys))


@small_chunks()
def test_scan_sees_every_key_mid_update():
    """A scan taken while a batch update is half done -- before and
    after each chunk is replaced by its merge, and each bound list
    change -- holds every key present before the update once."""
    rng = random.Random(13)
    m = _stable_map()
    seen: list = []
    starts = [b"", STABLE[5], STABLE[40], STABLE[-2]]

    def scans():
        for start in starts:
            seen.append((start, [k for k, _ in m.scan(start, False)]))

    class ScannedOnAssign(list):
        def __setitem__(self, index, value):
            scans()
            super().__setitem__(index, value)
            scans()

    m._chunks = ScannedOnAssign(m._chunks)
    m._maxes = ScannedOnAssign(m._maxes)
    for n in range(30):
        m.update([(b"s%03d+%d" % (rng.randrange(400), rng.randrange(7)), n)
                  for _ in range(rng.randrange(1, 10))]
                 + [(b"u%03d" % (n * 3 + i), n) for i in range(3)])
    assert len(seen) > 400
    for start, keys in seen:
        _check_scan(keys, start or None)
        assert len(keys) == len(set(keys))
