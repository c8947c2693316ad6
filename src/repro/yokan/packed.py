"""Length-prefixed packing for prefix-scan batch loads.

The ``yokan.load_prefix_packed`` RPC moves every key/value pair under a
list of key prefixes in a single bulk transfer.  The buffer layout is
deliberately dumber than the general archive format so both ends can
stream it without object overhead:

- one *group* per requested prefix, in request order;
- each group is ``uvarint(npairs)`` followed by ``npairs`` entries of
  ``uvarint(klen) + key + uvarint(vlen) + value``.

:func:`unpack_groups` returns values as ``memoryview`` slices over the
caller's buffer -- the landing buffer is decoded zero-copy and the
views pin it alive.  Callers that outlive the buffer must copy.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.errors import CorruptionError


def _append_uvarint(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def pack_groups(groups: Iterable[Iterable[Tuple[bytes, bytes]]]
                ) -> bytearray:
    """Pack per-prefix ``(key, value)`` pair groups into one buffer.

    ``groups`` is consumed one group at a time, so a lazy iterable of
    scans holds one group's pairs, never all of them; the buffer comes
    back as built (a ``bytearray``, ready to expose for bulk transfer).
    """
    out = bytearray()
    append = out.append
    for pairs in groups:
        pairs = list(pairs)
        _append_uvarint(out, len(pairs))
        for key, value in pairs:
            for part in (key, value):  # lengths under 2**14 inline
                n = len(part)
                if n < 0x80:
                    append(n)
                elif n < 0x4000:
                    append(n & 0x7F | 0x80)
                    append(n >> 7)
                else:
                    _append_uvarint(out, n)
                out += part
    return out


def _read_uvarint(data, pos: int, end: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= end:
            raise CorruptionError("truncated varint in packed buffer")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def unpack_groups(buffer, ngroups: int) -> List[List[Tuple[bytes, memoryview]]]:
    """Decode ``ngroups`` packed pair groups out of ``buffer``.

    Keys come back as ``bytes`` (they are small and get used as dict
    keys); values are zero-copy ``memoryview`` slices of ``buffer``.
    """
    view = buffer if isinstance(buffer, memoryview) else memoryview(buffer)
    end = len(view)
    pos = 0
    groups: List[List[Tuple[bytes, memoryview]]] = []
    try:
        for _ in range(ngroups):
            npairs, pos = _read_uvarint(view, pos, end)
            pairs: List[Tuple[bytes, memoryview]] = []
            for _ in range(npairs):
                klen = view[pos]  # past the end: IndexError, see below
                pos += 1
                if klen >= 0x80:
                    klen, pos = _read_uvarint(view, pos - 1, end)
                if pos + klen > end:
                    raise CorruptionError("truncated key in packed buffer")
                key = bytes(view[pos:pos + klen])
                pos += klen
                vlen = view[pos]  # 1- and 2-byte lengths inline
                pos += 1
                if vlen >= 0x80:
                    if view[pos] < 0x80:
                        vlen = vlen & 0x7F | view[pos] << 7
                        pos += 1
                    else:
                        vlen, pos = _read_uvarint(view, pos - 1, end)
                if pos + vlen > end:
                    raise CorruptionError("truncated value in packed buffer")
                pairs.append((key, view[pos:pos + vlen]))
                pos += vlen
            groups.append(pairs)
    except IndexError:
        raise CorruptionError("truncated varint in packed buffer") from None
    if pos != end:
        raise CorruptionError(
            f"trailing bytes in packed buffer ({end - pos} after "
            f"{ngroups} groups)"
        )
    return groups


# -- prefix framing: the scan_columns request encoding ------------------------


# -- column pages: the scan_columns projection framing -----------------------

#: per-prefix status bytes in a column page.
COL_ABSENT = 0    # no product under the key
COL_ROWS = 1      # columnar: followed by uvarint(row count)
COL_RAW = 2       # row-wise fallback: followed by uvarint(len) + value


def pack_column_page(statuses: Sequence, blocks: Sequence[Tuple[str, bytes]]
                     ) -> bytearray:
    """Pack one ``scan_columns`` response page.

    ``statuses`` holds one entry per requested prefix, in request
    order: ``None`` (absent), an ``int`` row count (columnar), or raw
    value ``bytes`` (row-wise fallback for values no column plan
    covers).  ``blocks`` holds one ``(dtype_str, payload)`` per
    requested field, each payload the field's rows concatenated across
    every columnar prefix in order.
    """
    out = bytearray()
    for status in statuses:
        if status is None:
            out.append(COL_ABSENT)
        elif isinstance(status, int):
            out.append(COL_ROWS)
            _append_uvarint(out, status)
        else:
            out.append(COL_RAW)
            _append_uvarint(out, len(status))
            out += status
    for dtype_str, payload in blocks:
        encoded = dtype_str.encode("ascii")
        _append_uvarint(out, len(encoded))
        out += encoded
        _append_uvarint(out, len(payload))
        out += payload
    return out


def unpack_column_page(buffer, nprefixes: int, nfields: int
                       ) -> Tuple[list, List[Tuple[str, memoryview]]]:
    """Decode a column page into per-prefix statuses and field blocks.

    Statuses mirror :func:`pack_column_page` except that raw values
    come back as zero-copy ``memoryview`` slices of ``buffer``; block
    payloads are ``memoryview`` slices too (``np.frombuffer``-ready).
    """
    view = buffer if isinstance(buffer, memoryview) else memoryview(buffer)
    end = len(view)
    pos = 0
    statuses: list = []
    for _ in range(nprefixes):
        if pos >= end:
            raise CorruptionError("truncated status in column page")
        tag = view[pos]
        pos += 1
        if tag == COL_ABSENT:
            statuses.append(None)
        elif tag == COL_ROWS:
            count, pos = _read_uvarint(view, pos, end)
            statuses.append(count)
        elif tag == COL_RAW:
            vlen, pos = _read_uvarint(view, pos, end)
            if pos + vlen > end:
                raise CorruptionError("truncated raw value in column page")
            statuses.append(view[pos:pos + vlen])
            pos += vlen
        else:
            raise CorruptionError(f"bad status tag {tag} in column page")
    blocks: List[Tuple[str, memoryview]] = []
    for _ in range(nfields):
        dlen, pos = _read_uvarint(view, pos, end)
        if pos + dlen > end:
            raise CorruptionError("truncated dtype in column page")
        dtype_str = bytes(view[pos:pos + dlen]).decode("ascii")
        pos += dlen
        plen, pos = _read_uvarint(view, pos, end)
        if pos + plen > end:
            raise CorruptionError("truncated column block in column page")
        blocks.append((dtype_str, view[pos:pos + plen]))
        pos += plen
    if pos != end:
        raise CorruptionError(
            f"trailing bytes in column page ({end - pos} after "
            f"{nprefixes} prefixes, {nfields} fields)")
    return statuses, blocks


__all__ = ["pack_groups", "unpack_groups",
           "pack_prefixes", "unpack_prefixes",
           "pack_column_page", "unpack_column_page",
           "COL_ABSENT", "COL_RAW", "COL_ROWS"]
