"""Hash functions and consistent hashing used for data placement.

HEPnOS selects which database instance holds a container (or product) by
*consistent hashing of the parent container's key* (paper section II-C3).
We provide a classic virtual-node hash ring: it supports weighted
targets and incremental membership changes (the Pufferscale rescaling
work the paper cites relies on that property).
"""

from __future__ import annotations

import bisect
from typing import Sequence

import numpy as np

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
#: keys a ring remembers the owner of before it forgets them all
_MEMO_BOUND = 1 << 16


def fnv1a_64(data: bytes, seed: int = _FNV_OFFSET) -> int:
    """64-bit FNV-1a hash of ``data``.

    Deterministic across processes (unlike :func:`hash` on ``bytes``),
    which matters because placement decisions made by writers must be
    reproducible by readers.  Given a ``uint64`` array ``seed`` and the
    rows of a ``uint64`` array as ``data``, it folds one row per step,
    elementwise (the constants are non-negative Python ints, which stay
    ``uint64`` under NumPy 1.x value-based casting and NEP 50 alike).
    """
    h = seed & _MASK64
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def mix64(value: int) -> int:
    """SplitMix64 finalizer: full-avalanche mix of a 64-bit value.

    FNV-1a of short, similar inputs differs mostly in the low bits; the
    hash ring needs dispersion across all 64 bits, so it runs raw
    hashes through this finalizer.  Elementwise on a ``uint64`` array.
    """
    z = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class ConsistentHashRing:
    """Consistent hash ring with virtual nodes.

    Targets are arbitrary hashable identifiers (HEPnOS uses database
    indices).  Each target owns ``vnodes`` points on a 64-bit ring; a key
    maps to the owner of the first point clockwise of its hash.
    """

    def __init__(self, targets: Sequence[object] = (), vnodes: int = 64):
        if vnodes <= 0:
            raise ValueError("vnodes must be positive")
        self._vnodes = vnodes
        self._points: list[int] = []
        self._owners: list[object] = []
        #: ``_points`` as an array, for :meth:`locate_many`
        self._array = np.empty(0, dtype=np.uint64)
        self._targets: set[object] = set()
        #: key -> owner memo; placement hashes the same container keys
        #: on every batch load, and the ring only changes on membership
        #: events, which clear it.
        self._memo: dict[bytes, object] = {}
        #: ``key[:-8]`` -> its FNV-1a state: a left fold, so a key hashes
        #: only its last 8 bytes on top (a subrun's events share a head).
        self._heads: dict[bytes, int] = {}
        for target in targets:
            self.add_target(target)

    @property
    def targets(self) -> frozenset:
        return frozenset(self._targets)

    def __len__(self) -> int:
        return len(self._targets)

    def add_target(self, target: object) -> None:
        if target in self._targets:
            raise ValueError(f"target {target!r} already on the ring")
        self._targets.add(target)
        self._memo.clear()
        # A vnode hashes the token ``f"{target!r}#{replica}"``; FNV-1a is
        # a left fold, so the shared ``f"{target!r}#"`` is hashed once.
        state = fnv1a_64(f"{target!r}#".encode())
        for replica in range(self._vnodes):
            point = mix64(fnv1a_64(str(replica).encode(), state))
            idx = bisect.bisect_left(self._points, point)
            # Break the (astronomically unlikely) tie deterministically.
            while idx < len(self._points) and self._points[idx] == point:
                idx += 1
            self._points.insert(idx, point)
            self._owners.insert(idx, target)
        self._array = np.array(self._points, dtype=np.uint64)

    def locate(self, key: bytes) -> object:
        """Return the target owning ``key``."""
        owner = self._memo.get(key)
        if owner is not None:
            return owner
        if not self._points:
            raise ValueError("hash ring has no targets")
        state = self._heads.get(key[:-8])
        if state is None:
            state = self._heads[bytes(key[:-8])] = fnv1a_64(key[:-8])
        point = mix64(fnv1a_64(key[-8:], state))
        idx = bisect.bisect_right(self._points, point)
        if idx == len(self._points):
            idx = 0
        owner = self._owners[idx]
        if len(self._memo) >= _MEMO_BOUND:
            self._memo.clear()
            self._heads.clear()  # one head per memo miss: bounded alike
        self._memo[bytes(key)] = owner
        return owner

    def locate_many(self, keys: Sequence[bytes]) -> list:
        """``[self.locate(key) for key in keys]``, the misses hashed at once.

        Memo misses resume FNV-1a from their head's state and run the 8
        tail bytes, SplitMix64 and the ring search as ``uint64`` arrays
        -- bit-identical to :meth:`locate`, whose memo they fill under the
        same bound.  Keys shorter than 8 bytes take :meth:`locate`.
        """
        owners = list(map(self._memo.get, keys))
        missing = [i for i, owner in enumerate(owners) if owner is None]
        if missing and min(map(len, keys)) < 8:
            for i in missing:
                if len(keys[i]) < 8:
                    owners[i] = self.locate(keys[i])
            missing = [i for i in missing if owners[i] is None]
        if not missing:
            return owners
        if not self._points:
            raise ValueError("hash ring has no targets")
        miss = list(map(bytes, [keys[i] for i in missing]))
        heads = self._heads
        prefixes = [key[:-8] for key in miss]
        for head in set(prefixes).difference(heads):
            heads[head] = fnv1a_64(head)
        states = np.array(list(map(heads.__getitem__, prefixes)),
                          dtype=np.uint64)
        tails = np.frombuffer(b"".join([key[-8:] for key in miss]), np.uint8)
        points = mix64(fnv1a_64(tails.reshape(-1, 8).T.astype(np.uint64),
                                states))
        idx = np.searchsorted(self._array, points, side="right")
        owner_at = self._owners
        found = [owner_at[i] for i in (idx % len(owner_at)).tolist()]
        for i, owner in zip(missing, found):
            owners[i] = owner
        memo = self._memo
        if len(memo) + len(miss) > _MEMO_BOUND:
            memo.clear()
            heads.clear()
        memo.update(zip(miss[-_MEMO_BOUND:], found[-_MEMO_BOUND:]))
        return owners
