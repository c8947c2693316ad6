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
