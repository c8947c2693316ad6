"""Mercury-style addresses: ``protocol://node/instance``."""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.errors import AddressError

_ADDRESS_RE = re.compile(
    r"^(?P<protocol>[a-z0-9+]+)://(?P<node>[A-Za-z0-9_.-]+)(?:/(?P<instance>[A-Za-z0-9_.-]+))?$"
)


@dataclass(frozen=True, order=True)
class Address:
    """A parsed engine address.

    Examples: ``sm://node0/server``, ``ofi+gni://nid00012/hepnos-0``.
    The ``instance`` component distinguishes multiple engines on one
    node (the paper runs up to 16 server ranks per node with RocksDB).
    """

    protocol: str
    node: str
    instance: str = "0"
    #: ``protocol://node/instance``, built once: what ``str()`` gives and
    #: what the fabric keys its engine table by (a ``str`` hashes and
    #: compares in C; the generated ``__hash__`` builds a tuple per call)
    uri: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "uri", f"{self.protocol}://{self.node}/{self.instance}")

    @classmethod
    def parse(cls, text: str) -> "Address":
        match = _ADDRESS_RE.match(text)
        if match is None:
            raise AddressError(f"malformed address {text!r}")
        return cls(
            protocol=match.group("protocol"),
            node=match.group("node"),
            instance=match.group("instance") or "0",
        )

    def __str__(self) -> str:
        return self.uri
