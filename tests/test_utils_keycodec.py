"""Tests for big-endian key encoding (ordering is the contract)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import (
    decode_u64_be,
    encode_u64_be,
    prefix_upper_bound,
)

U64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


def test_encode_width():
    assert encode_u64_be(0) == b"\x00" * 8
    assert encode_u64_be((1 << 64) - 1) == b"\xff" * 8
    assert len(encode_u64_be(123456)) == 8


def test_encode_out_of_range():
    with pytest.raises(ValueError):
        encode_u64_be(-1)
    with pytest.raises(ValueError):
        encode_u64_be(1 << 64)


def test_decode_wrong_width():
    with pytest.raises(ValueError):
        decode_u64_be(b"\x00" * 7)


@settings(max_examples=200, deadline=None)
@given(U64)
def test_roundtrip(value):
    assert decode_u64_be(encode_u64_be(value)) == value


@settings(max_examples=200, deadline=None)
@given(U64, U64)
def test_order_preserving(a, b):
    """The whole point of big-endian keys: byte order == numeric order."""
    assert (encode_u64_be(a) < encode_u64_be(b)) == (a < b)


def test_prefix_upper_bound_simple():
    assert prefix_upper_bound(b"abc") == b"abd"
    assert prefix_upper_bound(b"a\xff") == b"b"
    assert prefix_upper_bound(b"\xff\xff") is None
    assert prefix_upper_bound(b"") is None


@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=1, max_size=16), st.binary(max_size=8))
def test_prefix_upper_bound_property(prefix, suffix):
    bound = prefix_upper_bound(prefix)
    key = prefix + suffix
    if bound is None:
        assert all(b == 0xFF for b in prefix)
    else:
        assert prefix <= key < bound
