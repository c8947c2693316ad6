"""Length-table packing for batched writes and prefix-scan loads.

Batched pairs travel as *groups* in Yokan's packed shape
(``yk_put_packed``): one group is

- ``u32 count``, then one ``u32`` length table: the ``count`` key
  lengths, then the ``count`` value lengths;
- the key bytes, back to back, then the value bytes, back to back

(every integer little-endian).  A ``put_multi`` bulk buffer is one
group (:func:`pack_columns` / :func:`unpack_columns`); a
``load_prefix_packed`` answer is one group per requested prefix, in
request order (:func:`append_group`, :func:`unpack_groups`).  Both ends
move a group as columns, with no call per pair: the table is one
``array`` of ``map(len, ...)`` and the bytes one join; the table comes
back out of one ``struct`` unpack (a one-code format, ``<nI``, which
``struct`` keeps compiled), and the parts out of one more whose format
is joined from per-length codes.  The wire's key-list field shares the table helpers
(:func:`lengths`, :func:`read_lengths`, :func:`split`).

A ``get_multi`` answer is one ``uvarint(len + 1) + value`` item per key
(``0`` for an absent key).  It and a ``load_prefix_packed`` answer are
packed one item at a time by :func:`pack_leading`, which stops at the
first item that does not fit the client's landing buffer.  A
``scan_columns`` answer is one column page (:func:`pack_column_page`),
answered whole or not at all.

:func:`unpack_groups` and :func:`unpack_values` return values as
``memoryview`` slices over the caller's buffer -- the landing buffer is
decoded zero-copy and the views pin it alive.  Callers that outlive the
buffer must copy.
"""

from __future__ import annotations

import struct
import sys
from array import array
from itertools import accumulate, islice
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.errors import CorruptionError

#: the ``array`` code of an unsigned 32-bit int, byte-swapped to little
#: endian on a big-endian machine
_U32 = "I" if array("I").itemsize == 4 else "L"
_SWAP = sys.byteorder == "big"
_COUNT = struct.Struct("<I")


def _append_uvarint(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


# -- length tables -------------------------------------------------------------


def _table(table: array) -> bytes:
    if _SWAP:
        table.byteswap()
    return table.tobytes()


def lengths(parts: Sequence) -> bytes:
    """The ``u32`` length table of ``parts``, one entry per part."""
    if len(parts) == 1:  # a one-key list: no array to build
        return len(parts[0]).to_bytes(4, "little")
    return _table(array(_U32, map(len, parts)))


def read_lengths(view, at: int, count: int) -> tuple:
    """The ``count`` lengths of the table at ``at`` (the caller has
    checked that it fits ``view``)."""
    return struct.unpack_from(f"<{count}I", view, at)


class _Codes(dict):
    """Length -> the ``struct`` code of a bytes field that long, made
    on first use (a buffer's parts come in few distinct lengths)."""

    def __missing__(self, length: int) -> str:
        if len(self) >= 4096:
            self.clear()
        code = self[length] = f"{length}s"
        return code


_CODES = _Codes()


def split(data, at: int, lengths) -> tuple:
    """The parts of ``data`` from ``at`` on, ``lengths`` bytes each, as
    ``bytes``, cut by one ``struct`` unpack (the caller has checked that
    they fit).  The format is compiled afresh: it holds one code per
    part, and ``struct``'s own cache would keep up to a hundred of
    them."""
    return struct.Struct(
        "<" + "".join([_CODES[n] for n in lengths])).unpack_from(data, at)


# -- pair groups ---------------------------------------------------------------


def _head(keys: Sequence, values: Sequence) -> bytes:
    """A group's count and length table."""
    table = array(_U32, (len(keys),))
    table.extend(map(len, keys))
    table.extend(map(len, values))
    return _table(table)


def pack_columns(keys: Sequence, values: Sequence) -> bytearray:
    """One group of ``keys[i]`` -> ``values[i]`` as a new buffer (a
    ``bytearray``, ready to expose for bulk transfer)."""
    return bytearray().join((_head(keys, values), *keys, *values))


def append_group(out: bytearray, pairs: Iterable[Tuple[bytes, bytes]]
                 ) -> None:
    """Append one group of ``(key, value)`` pairs to ``out``."""
    pairs = list(pairs)
    keys = [key for key, _ in pairs]
    values = [value for _, value in pairs]
    out += b"".join((_head(keys, values), *keys, *values))


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


def _group(view: memoryview, pos: int, end: int) -> tuple:
    """The group at ``pos``: ``(count, its length table, where its keys
    start, where it ends)``, every length checked against ``end`` before
    anything is cut."""
    if pos + 4 > end:
        raise CorruptionError("truncated group count in packed buffer")
    (count,) = _COUNT.unpack_from(view, pos)
    at = pos + 4 + 8 * count
    if at > end:
        raise CorruptionError("truncated length table in packed buffer")
    table = read_lengths(view, pos + 4, 2 * count)
    stop = at + sum(table)
    if stop > end:
        raise CorruptionError("truncated group in packed buffer")
    return count, table, at, stop


def unpack_columns(buffer) -> Tuple[tuple, tuple]:
    """The keys and the values of a buffer holding one group, both as
    ``bytes`` copied out of ``buffer``."""
    view = buffer if isinstance(buffer, memoryview) else memoryview(buffer)
    count, table, at, pos = _group(view, 0, len(view))
    if pos != len(view):
        raise CorruptionError(
            f"trailing bytes in packed buffer ({len(view) - pos} after "
            f"1 group)")
    parts = split(view, at, table)
    return parts[:count], parts[count:]


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
    for _ in range(ngroups):
        count, table, at, pos = _group(view, pos, end)
        edges = list(accumulate(table, initial=at))
        groups.append(list(zip(split(view, at, table[:count]), [
            view[a:b] for a, b in zip(islice(edges, count, None),
                                      islice(edges, count + 1, None))])))
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


__all__ = ["pack_columns", "unpack_columns", "append_group",
           "pack_groups", "unpack_groups", "lengths", "read_lengths", "split",
           "append_value", "unpack_values", "pack_leading",
           "pack_column_page", "unpack_column_page",
           "COL_ABSENT", "COL_RAW", "COL_ROWS"]
