"""The in-memory backend: the paper's ``std::map`` configuration."""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Tuple

from repro.errors import ConfigError, KeyNotFound
from repro.utils import SortedMap
from repro.yokan.backend import Backend, register_backend


@register_backend("map")
class MemoryBackend(Backend):
    """Sorted in-memory store backed by a :class:`SortedMap`.

    This is the highest-performing configuration in the paper's
    evaluation (Figure 2's "HEPnOS in-memory" series): no WAL, no disk,
    data lives exactly as long as the service.  It takes no option.
    """

    def __init__(self, **unknown):
        super().__init__()
        if unknown:
            raise ConfigError(f"unknown map option(s) {sorted(unknown)}")
        self._map = SortedMap()

    def put(self, key: bytes, value: bytes) -> None:
        self._check_open()
        self._map[key] = bytes(value)

    def put_multi(self, pairs: Iterable[Tuple[bytes, bytes]]) -> int:
        self._check_open()
        pairs = list(pairs)
        for key, value in pairs:
            self._map[key] = bytes(value)
        return len(pairs)

    def get(self, key: bytes) -> bytes:
        self._check_open()
        value = self._map.get(key)
        if value is None:
            raise KeyNotFound(repr(key))
        return value

    def get_each(self, keys: Iterable[bytes]) -> Iterator[Optional[bytes]]:
        self._check_open()
        return map(self._map.get, keys)

    def exists(self, key: bytes) -> bool:
        self._check_open()
        return key in self._map

    def erase(self, key: bytes) -> None:
        self._check_open()
        try:
            self._map.pop(key)
        except KeyError:
            raise KeyNotFound(repr(key)) from None

    def __len__(self) -> int:
        return len(self._map)

    def scan(self, start: bytes = b"", inclusive: bool = True
             ) -> Iterator[Tuple[bytes, bytes]]:
        self._check_open()
        return self._map.scan(start, inclusive=inclusive)
