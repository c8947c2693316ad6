"""Length-prefixed packing for prefix-scan batch loads.

The ``yokan.load_prefix_packed`` RPC moves every key/value pair under a
list of key prefixes in a single bulk transfer.  The buffer layout is
deliberately dumber than the general archive format so both ends can
stream it without object overhead:

- one *group* per requested prefix, in request order;
- each group is ``uvarint(npairs)`` followed by ``npairs`` entries of
  ``uvarint(klen) + key + uvarint(vlen) + value``.

A ``get_multi`` answer is one ``uvarint(len + 1) + value`` item per key
(``0`` for an absent key).  Both are packed one item at a time by
:func:`pack_leading`, which stops at the first item that does not fit
the client's landing buffer.  A ``scan_columns`` answer is one column
page (:func:`pack_column_page`), answered whole or not at all.

:func:`unpack_groups` and :func:`unpack_values` return values as
``memoryview`` slices over the caller's buffer -- the landing buffer is
decoded zero-copy and the views pin it alive.  Callers that outlive the
buffer must copy.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple

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


def append_group(out: bytearray, pairs: Iterable[Tuple[bytes, bytes]]
                 ) -> None:
    """Append one packed pair group to ``out``."""
    pairs = list(pairs)
    append = out.append
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


def pack_groups(groups: Iterable[Iterable[Tuple[bytes, bytes]]]
                ) -> bytearray:
    """Pack per-prefix ``(key, value)`` pair groups into one buffer.

    ``groups`` is consumed one group at a time, so a lazy iterable of
    scans holds one group's pairs, never all of them; the buffer comes
    back as built (a ``bytearray``, ready to expose for bulk transfer).
    """
    out = bytearray()
    for pairs in groups:
        append_group(out, pairs)
    return out


def append_value(out: bytearray, value: Optional[bytes]) -> None:
    """Append one ``get_multi`` answer item: ``uvarint(len + 1) + value``,
    or a single 0 byte for an absent key."""
    if value is None:
        out.append(0)
    else:
        _append_uvarint(out, len(value) + 1)
        out += value


def pack_leading(items: Iterable, total: int, capacity: int,
                 append: Callable[[bytearray, object], None]
                 ) -> Tuple[bytearray, int, int]:
    """Pack the leading whole items of ``items`` that fit in ``capacity``.

    ``append(out, item)`` packs one item; ``total`` is how many items
    were asked.  Returns ``(buffer, count, needed)``: the packed first
    ``count`` items and what a request for the rest should offer --
    0 when every item fit.  When the first item that does not fit would
    fit the buffer by itself, the items after it are never pulled:
    ``needed`` is its size plus the mean item size so far for each one
    after it, an eighth to spare.  Otherwise the buffer is too small
    for the items asked, and the rest are packed to measure them:
    ``needed`` is their exact size (everything asked, when not one item
    fits).
    """
    items = iter(items)
    out = bytearray()
    count = 0
    for item in items:
        mark = len(out)
        append(out, item)
        if len(out) <= capacity:
            count += 1
            continue
        size = len(out) - mark
        if count and size <= capacity:
            del out[mark:]
            mean = (mark + size) / (count + 1)
            return out, count, size + int(mean * (total - count - 1) * 1.125)
        for item in items:
            append(out, item)
        needed = len(out) - mark
        del out[mark:]
        return out, count, needed
    return out, count, 0


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


def unpack_values(buffer, count: int) -> List[Optional[memoryview]]:
    """Decode ``count`` :func:`append_value` items out of ``buffer``;
    values are zero-copy ``memoryview`` slices of ``buffer``."""
    view = buffer if isinstance(buffer, memoryview) else memoryview(buffer)
    end = len(view)
    pos = 0
    values: List[Optional[bytes]] = []
    for _ in range(count):
        size, pos = _read_uvarint(view, pos, end)
        if not size:
            values.append(None)
            continue
        size -= 1
        if pos + size > end:
            raise CorruptionError("truncated value in packed buffer")
        values.append(view[pos:pos + size])
        pos += size
    if pos != end:
        raise CorruptionError(
            f"trailing bytes in packed buffer ({end - pos} after "
            f"{count} values)")
    return values


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


__all__ = ["append_group", "pack_groups", "unpack_groups",
           "append_value", "unpack_values", "pack_leading",
           "pack_column_page", "unpack_column_page",
           "COL_ABSENT", "COL_RAW", "COL_ROWS"]
