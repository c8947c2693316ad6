"""Shared low-level utilities: sorted maps, hashing, key codecs."""

from repro.utils.sortedmap import SortedMap
from repro.utils.hashing import fnv1a_64, mix64, ConsistentHashRing
from repro.utils.keycodec import (
    encode_u64_be,
    decode_u64_be,
    prefix_upper_bound,
)

__all__ = [
    "SortedMap",
    "fnv1a_64",
    "mix64",
    "ConsistentHashRing",
    "encode_u64_be",
    "decode_u64_be",
    "prefix_upper_bound",
]
