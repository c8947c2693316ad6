"""A deterministic skip-list ordered map over ``bytes`` keys.

Yokan's in-memory backend (the paper's ``std::map`` backend) needs a
sorted associative container with cheap ordered iteration and
lower-bound seeks for prefix scans.  Python has no ordered map in the
standard library, so we implement a classic skip list (Pugh, 1990).

The tower heights are drawn from a private :class:`random.Random`
seeded at construction, so a given insertion sequence always produces
the same structure -- useful for reproducible benchmarks and tests.

Complexities: expected O(log n) insert / delete / seek, O(1) amortized
step while iterating in order.
"""

from __future__ import annotations

import random
from typing import Iterator, Optional, Tuple

_MAX_LEVEL = 32
_P_NUM = 1  # promotion probability = _P_NUM / _P_DEN
_P_DEN = 4


class _Node:
    __slots__ = ("key", "value", "forward")

    def __init__(self, key: Optional[bytes], value, level: int):
        self.key = key
        self.value = value
        self.forward: list[Optional[_Node]] = [None] * level


class SkipListMap:
    """Ordered mapping from ``bytes`` keys to arbitrary values.

    Supports the mapping protocol plus :meth:`scan`, the ordered
    (key, value) iteration from a lower bound the KV backends build
    their range and prefix scans on.
    """

    def __init__(self, seed: int = 0x5EED):
        self._rng = random.Random(seed)
        self._head = _Node(None, None, _MAX_LEVEL)
        self._level = 1
        self._len = 0

    # -- internal helpers -------------------------------------------------

    def _random_level(self) -> int:
        level = 1
        while level < _MAX_LEVEL and self._rng.randrange(_P_DEN) < _P_NUM:
            level += 1
        return level

    def _find_predecessors(self, key: bytes) -> list[_Node]:
        """Per level, the last node with key < ``key``."""
        update = [self._head] * _MAX_LEVEL
        node = self._head
        for lvl in range(self._level - 1, -1, -1):
            nxt = node.forward[lvl]
            while nxt is not None and nxt.key < key:
                node = nxt
                nxt = node.forward[lvl]
            update[lvl] = node
        return update

    # -- mapping protocol --------------------------------------------------

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    def __contains__(self, key: bytes) -> bool:
        node = self._find_predecessors(key)[0].forward[0]
        return node is not None and node.key == key

    def __getitem__(self, key: bytes):
        node = self._find_predecessors(key)[0].forward[0]
        if node is None or node.key != key:
            raise KeyError(key)
        return node.value

    def get(self, key: bytes, default=None):
        node = self._find_predecessors(key)[0].forward[0]
        if node is None or node.key != key:
            return default
        return node.value

    def __setitem__(self, key: bytes, value) -> None:
        if not isinstance(key, bytes):
            raise TypeError(f"SkipListMap keys must be bytes, got {type(key).__name__}")
        update = self._find_predecessors(key)
        node = update[0].forward[0]
        if node is not None and node.key == key:
            node.value = value
            return
        level = self._random_level()
        if level > self._level:
            self._level = level
        new = _Node(key, value, level)
        for lvl in range(level):
            new.forward[lvl] = update[lvl].forward[lvl]
            update[lvl].forward[lvl] = new
        self._len += 1

    def __delitem__(self, key: bytes) -> None:
        update = self._find_predecessors(key)
        node = update[0].forward[0]
        if node is None or node.key != key:
            raise KeyError(key)
        for lvl in range(len(node.forward)):
            if update[lvl].forward[lvl] is node:
                update[lvl].forward[lvl] = node.forward[lvl]
        while self._level > 1 and self._head.forward[self._level - 1] is None:
            self._level -= 1
        self._len -= 1

    def pop(self, key: bytes, *default):
        try:
            value = self[key]
        except KeyError:
            if default:
                return default[0]
            raise
        del self[key]
        return value

    # -- ordered access ----------------------------------------------------

    def scan(
        self, start: bytes = b"", inclusive: bool = True
    ) -> Iterator[Tuple[bytes, object]]:
        """Yield (key, value) pairs in key order starting at ``start``.

        Mutating the map while scanning is not supported.
        """
        node = self._find_predecessors(start)[0].forward[0]
        if node is not None and not inclusive and node.key == start:
            node = node.forward[0]
        while node is not None:
            yield node.key, node.value
            node = node.forward[0]

    def keys(self) -> Iterator[bytes]:
        for key, _ in self.scan():
            yield key

    def __iter__(self) -> Iterator[bytes]:
        return self.keys()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SkipListMap(len={self._len}, level={self._level})"
