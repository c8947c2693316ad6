"""Unit and property tests for the skip-list sorted map."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import SkipListMap


def test_empty_map():
    m = SkipListMap()
    assert len(m) == 0
    assert not m
    assert b"a" not in m
    assert m.get(b"a") is None
    assert list(m.scan()) == []


def test_set_get_contains():
    m = SkipListMap()
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
    m = SkipListMap()
    m[b"k"] = 1
    m[b"k"] = 2
    assert len(m) == 1
    assert m[b"k"] == 2


def test_delete():
    m = SkipListMap()
    for i in range(10):
        m[bytes([i])] = i
    del m[bytes([5])]
    assert len(m) == 9
    assert bytes([5]) not in m
    with pytest.raises(KeyError):
        del m[bytes([5])]


def test_pop():
    m = SkipListMap()
    m[b"a"] = 1
    assert m.pop(b"a") == 1
    assert m.pop(b"a", "default") == "default"
    with pytest.raises(KeyError):
        m.pop(b"a")


def test_non_bytes_key_rejected():
    m = SkipListMap()
    with pytest.raises(TypeError):
        m["string"] = 1


def test_ordered_iteration():
    m = SkipListMap()
    keys = [b"delta", b"alpha", b"charlie", b"bravo"]
    for i, k in enumerate(keys):
        m[k] = i
    assert list(m.keys()) == sorted(keys)
    assert [v for _, v in m.scan()] == [1, 3, 2, 0]


def test_seek_lower_bound():
    m = SkipListMap()
    for k in (b"b", b"d", b"f"):
        m[k] = k
    assert next(m.scan(b"a")) == (b"b", b"b")
    assert next(m.scan(b"b")) == (b"b", b"b")
    assert next(m.scan(b"c")) == (b"d", b"d")
    assert next(m.scan(b"g"), None) is None


def test_scan_exclusive_start():
    m = SkipListMap()
    for k in (b"a", b"b", b"c"):
        m[k] = 1
    assert [k for k, _ in m.scan(b"b", inclusive=False)] == [b"c"]
    assert [k for k, _ in m.scan(b"b", inclusive=True)] == [b"b", b"c"]


def test_deterministic_structure():
    m1, m2 = SkipListMap(seed=7), SkipListMap(seed=7)
    for i in range(100):
        key = bytes(f"{i:04d}", "ascii")
        m1[key] = i
        m2[key] = i
    assert m1._level == m2._level
    assert list(m1.scan()) == list(m2.scan())


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.binary(min_size=0, max_size=12), st.integers()))
def test_matches_builtin_dict(model):
    m = SkipListMap()
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
    m = SkipListMap()
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
    m = SkipListMap()
    for k in keys:
        m[k] = True
    expected = min((k for k in keys if k >= probe), default=None)
    got = next(m.scan(probe), None)
    assert (got[0] if got else None) == expected
