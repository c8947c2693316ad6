"""Shared low-level utilities: sorted maps, hashing, key codecs."""

from repro.utils.skiplist import SkipListMap
from repro.utils.hashing import fnv1a_64, mix64, ConsistentHashRing
from repro.utils.keycodec import (
    encode_u64_be,
    decode_u64_be,
    prefix_upper_bound,
)

__all__ = [
    "SkipListMap",
    "fnv1a_64",
    "mix64",
    "ConsistentHashRing",
    "encode_u64_be",
    "decode_u64_be",
    "prefix_upper_bound",
]
