"""Tests for hashing and consistent placement utilities."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import ConsistentHashRing, fnv1a_64


def test_fnv1a_known_values():
    # Reference values for the 64-bit FNV-1a parameters.
    assert fnv1a_64(b"") == 0xCBF29CE484222325
    assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a_64(b"foobar") == 0x85944171F73967E8


def test_fnv1a_distinct_inputs():
    assert fnv1a_64(b"run1") != fnv1a_64(b"run2")


def test_ring_requires_targets():
    ring = ConsistentHashRing()
    with pytest.raises(ValueError):
        ring.locate(b"key")


def test_ring_locates_consistently():
    ring = ConsistentHashRing(range(4))
    assert ring.locate(b"alpha") == ring.locate(b"alpha")
    owners = {ring.locate(str(i).encode()) for i in range(200)}
    assert owners == {0, 1, 2, 3}


def test_ring_duplicate_target_rejected():
    ring = ConsistentHashRing([1])
    with pytest.raises(ValueError):
        ring.add_target(1)


def test_ring_minimal_disruption():
    """Adding a target relocates only keys that now map to it."""
    ring = ConsistentHashRing(range(4))
    keys = [str(i).encode() for i in range(500)]
    before = {k: ring.locate(k) for k in keys}
    ring.add_target(4)
    moved = sum(1 for k in keys if ring.locate(k) != before[k])
    for k in keys:
        if ring.locate(k) != before[k]:
            assert ring.locate(k) == 4
    # Expect roughly 1/5 of keys to move; allow generous slack.
    assert moved < len(keys) // 2


def test_ring_balance():
    ring = ConsistentHashRing(range(8), vnodes=128)
    counts = {i: 0 for i in range(8)}
    for i in range(8000):
        counts[ring.locate(f"key-{i}".encode())] += 1
    for owner, count in counts.items():
        assert count > 0, f"target {owner} owns no keys"
        assert 0.3 * 1000 < count < 3 * 1000


@settings(max_examples=50, deadline=None)
@given(st.binary(max_size=32))
def test_fnv_is_64bit(data):
    assert 0 <= fnv1a_64(data) < (1 << 64)
