"""Tests for hashing and consistent placement utilities."""

import bisect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bedrock import BedrockServer, default_hepnos_config
from repro.hepnos.connection import DbTarget, connection_from_servers
from repro.hepnos.keys import event_key, new_dataset_uuid, run_key, subrun_key
from repro.hepnos.placement import ParentHashPlacement
from repro.mercury import Fabric
from repro.utils import ConsistentHashRing, fnv1a_64, mix64


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


def _ring_owner(ring, key):
    """The owner of ``key`` by definition: the first ring point
    clockwise of ``mix64(fnv1a_64(key))``, wrapping past the top."""
    point = mix64(fnv1a_64(key))
    return next((owner for p, owner in zip(ring._points, ring._owners)
                 if p > point), ring._owners[0])


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=80), st.binary(max_size=8))
def test_locate_resumes_the_full_key_hash(key, other_tail):
    """``locate`` hashes only a key's last 8 bytes on top of its head's
    cached fold state; the owner stays that of the full-key hash, cold
    and with the head already cached by a sibling key."""
    ring = ConsistentHashRing(range(5))
    assert ring.locate(key) == _ring_owner(ring, key)  # cold
    sibling = key[:-8] + other_tail
    ring._memo.clear()
    ring.locate(sibling)  # warms key[:-8], if the sibling shares it
    ring._memo.clear()
    assert ring.locate(key) == _ring_owner(ring, key)  # warm head


def _byte_by_byte_ring(targets, vnodes):
    """Ring points and owners with every vnode token hashed whole."""
    points, owners = [], []
    for target in targets:
        for replica in range(vnodes):
            point = mix64(fnv1a_64(f"{target!r}#{replica}".encode()))
            idx = bisect.bisect_left(points, point)
            while idx < len(points) and points[idx] == point:
                idx += 1
            points.insert(idx, point)
            owners.insert(idx, target)
    return points, owners


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(
    st.integers(), st.text(max_size=12),
    st.builds(DbTarget, st.text(max_size=20), st.integers(0, 99),
              st.text(max_size=12))), unique=True, max_size=8),
    st.integers(min_value=1, max_value=130))
def test_ring_points_fold_on_the_target_prefix(targets, vnodes):
    """Vnode points resume FNV-1a from ``f"{target!r}#"`` and fold only
    the replica digits: the ring equals the whole-token construction."""
    ring = ConsistentHashRing(targets, vnodes=vnodes)
    assert (ring._points, ring._owners) == _byte_by_byte_ring(targets, vnodes)


#: (kind, container numbers, address, database) pinned on the tree that
#: hashed every key byte by byte: placement must never move a stored key.
GOLDEN_PLACEMENT = [
    ("subruns", (1,), "sm://node1/hepnos", "subruns-1"),
    ("subruns", (7,), "sm://node0/hepnos", "subruns-0"),
    ("subruns", (1 << 40,), "sm://node1/hepnos", "subruns-0"),
    ("subruns", (4,), "sm://node0/hepnos", "subruns-0"),
    ("events", (1, 0), "sm://node1/hepnos", "events-2"),
    ("events", (1, 63), "sm://node1/hepnos", "events-6"),
    ("events", (7, 2), "sm://node0/hepnos", "events-1"),
    ("events", (1 << 40, 5), "sm://node0/hepnos", "events-4"),
    ("products", (1, 0, 0), "sm://node1/hepnos", "products-3"),
    ("products", (1, 0, 1), "sm://node1/hepnos", "products-4"),
    ("products", (1, 63, 4095), "sm://node1/hepnos", "products-7"),
    ("products", (7, 2, 1 << 33), "sm://node1/hepnos", "products-7"),
]


def test_placement_matches_golden_targets():
    """Run, subrun and event keys of a two-server default deployment
    land on the databases they always have."""
    fabric = Fabric()
    servers = [BedrockServer(fabric, default_hepnos_config(
        f"sm://node{i}/hepnos")) for i in range(2)]
    try:
        placement = ParentHashPlacement(connection_from_servers(servers))
        uuid = new_dataset_uuid("golden/nova")
        for kind, numbers, address, name in GOLDEN_PLACEMENT:
            key = run_key(uuid, numbers[0])
            if len(numbers) > 1:
                key = subrun_key(key, numbers[1])
            if len(numbers) > 2:
                key = event_key(key, numbers[2])
            target = placement.database_for(kind, key)
            assert (target.address, target.name) == (address, name), \
                (kind, numbers)
    finally:
        for server in servers:
            server.shutdown()
