"""Struct-of-arrays columnar layout for registered product classes.

HEP selection is embarrassingly columnar: a Cut touches two or three
fields of every slice, yet the row-wise archive ships and decodes whole
objects.  This module provides the transposed view:

- :func:`column_plan` (from :mod:`repro.serial.compiled`) is a class's
  column schema: its field plan, from the dataclass field list or the
  ``serialize`` sentinel probe;
- :func:`to_columns` transposes a homogeneous object list into numpy
  arrays (``float``/``int``/``bool`` fields) or plain value lists
  (everything else), with strict ``type(v) is`` guards -- a value that
  fails its guard degrades that column to an archive-encoded list,
  never to a lossy cast;
- :func:`table_records` / :func:`project_records` give the same
  columns for a stored *typed table value* (what ingest writes) straight
  from its record bytes, without building a row;
- the ``*_block`` helpers translate tables to and from the wire blocks
  of the ``yokan.scan_columns`` projection RPC.

Classes that are unregistered, version-dependent, or fail the probe
have no plan; their values travel row-wise ("raw") and every consumer
falls back to per-object decoding, so the columnar path can narrow the
data but never change it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CorruptionError, SerializationError
from repro.serial import archive as _A
from repro.serial.compiled import column_plan

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1

#: numpy dtype per specialized column kind (little-endian on the wire).
COLUMN_DTYPES = {float: "<f8", int: "<i8", bool: "|b1"}
#: stored dtype kinds whose ``.item()`` is exactly that column kind.
_DTYPE_KINDS = {float: "f", int: "iu", bool: "b"}
#: dtype marker for a column shipped as an archive-encoded value list.
OBJECT_DTYPE = "O"


def column_fields(cls: type) -> Optional[List[str]]:
    """The ordered column names of ``cls``, or ``None`` if unplanned."""
    plan = column_plan(cls)
    if plan is None:
        return None
    return [name for name, _kind in plan]


def _column_for(objs: Sequence[Any], name: str, kind) -> Any:
    """One column: a typed numpy array, or a value list on guard failure."""
    vals = [getattr(o, name) for o in objs]
    if kind is float:
        for v in vals:
            if type(v) is not float:
                return vals
        return np.array(vals, dtype="<f8")
    if kind is int:
        for v in vals:
            if type(v) is not int or not _I64_MIN <= v <= _I64_MAX:
                return vals
        return np.array(vals, dtype="<i8")
    if kind is bool:
        for v in vals:
            if type(v) is not bool:
                return vals
        return np.array(vals, dtype="|b1")
    return vals


def to_columns(objs: Sequence[Any]) -> Optional[Tuple[int, Dict[str, Any]]]:
    """Transpose a homogeneous list of planned products into columns.

    Returns ``(row_count, {field: array_or_list})`` covering *every*
    field of the class, or ``None`` when the list is empty,
    heterogeneous, or its class has no column plan (callers then keep
    the row-wise value).
    """
    if not objs:
        return None
    cls = type(objs[0])
    for o in objs:
        if type(o) is not cls:
            return None
    plan = column_plan(cls)
    if plan is None:
        return None
    return len(objs), {name: _column_for(objs, name, kind)
                       for name, kind in plan}


def value_to_table(value) -> Optional[Tuple[str, int, Dict[str, Any]]]:
    """Decode a stored product value into ``(type_name, count, columns)``.

    ``None`` when the value is not a non-empty homogeneous list of
    planned products (including when it fails to decode at all -- the
    row-wise bytes then travel unchanged and the *client* raises the
    decode error, exactly as on the per-event path).
    """
    try:
        objs = _A.loads(value)
    except Exception:
        return None
    if type(objs) is not list:
        return None
    table = to_columns(objs)
    if table is None:
        return None
    count, columns = table
    return _A._BY_TYPE[type(objs[0])], count, columns


def table_records(value) -> Optional[tuple]:
    """``(layout, record bytes)`` of a stored typed table value.

    ``None`` for anything else -- a row-encoded value, an empty table,
    or a table that is damaged in any way (the bytes then travel
    unchanged like any other unprojectable value, and the client's
    ``loads`` raises the error).
    """
    if not len(value) or value[0] != _A._T_TABLE:
        return None
    ar = _A.InputArchive(value)
    ar._pos = 1
    try:
        layout, records = _A._read_table_records(ar)
    except SerializationError:
        return None
    if ar._pos != ar._len or not len(records):
        return None
    return layout, records


def project_records(layout, records, fields: Sequence[str]) -> Dict[str, Any]:
    """``fields`` of packed table records as :func:`to_columns` gives
    them for the decoded rows: widened to the class plan's column dtype
    where every value passes that kind's guard, else the value list."""
    table = np.frombuffer(records, dtype=layout.dtype)
    kinds = dict(column_plan(layout.cls))
    columns = {}
    for name in fields:
        col = table[name]
        kind = kinds[name]
        if (col.dtype.kind in _DTYPE_KINDS.get(kind, "")
                and not (col.dtype == np.uint64 and col.max() > _I64_MAX)):
            columns[name] = col.astype(COLUMN_DTYPES[kind])
        else:
            columns[name] = col.tolist()
    return columns


# -- wire blocks for the scan_columns projection ------------------------------


def pack_field_column(tables: Sequence[Dict[str, Any]],
                      name: str) -> Tuple[str, bytes]:
    """Concatenate one field across per-container tables into a wire block.

    Returns ``(dtype_str, payload)``: a raw little-endian array when
    every piece is a numpy column of the same dtype, otherwise an
    archive-encoded flat value list under :data:`OBJECT_DTYPE`.
    """
    parts = [t[name] for t in tables]
    arrays = [p for p in parts if isinstance(p, np.ndarray)]
    if len(arrays) == len(parts):
        dtypes = {a.dtype.str for a in arrays}
        if len(dtypes) <= 1:
            if not arrays:
                return COLUMN_DTYPES[float], b""
            merged = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
            return merged.dtype.str, merged.tobytes()
    flat: List[Any] = []
    for p in parts:
        flat.extend(p.tolist() if isinstance(p, np.ndarray) else p)
    return OBJECT_DTYPE, _A.dumps(flat)


def column_from_block(dtype_str: str, payload, total_rows: int):
    """Decode one wire block back into a column of ``total_rows`` values.

    Numeric blocks come back as zero-copy ``np.frombuffer`` views over
    ``payload``; :data:`OBJECT_DTYPE` blocks as plain lists.
    """
    if dtype_str == OBJECT_DTYPE:
        vals = _A.loads(bytes(payload))
        if type(vals) is not list or len(vals) != total_rows:
            raise CorruptionError(
                f"column block decoded to {type(vals).__name__} of "
                f"{len(vals) if type(vals) is list else '?'} values, "
                f"expected a {total_rows}-row list")
        return vals
    try:
        dtype = np.dtype(dtype_str)
    except TypeError:
        raise CorruptionError(f"column block has bad dtype {dtype_str!r}")
    arr = np.frombuffer(payload, dtype=dtype) if len(payload) else \
        np.empty(0, dtype=dtype)
    if arr.shape[0] != total_rows:
        raise CorruptionError(
            f"column block has {arr.shape[0]} rows, expected {total_rows}")
    return arr


__all__ = [
    "COLUMN_DTYPES",
    "OBJECT_DTYPE",
    "column_fields",
    "column_plan",
    "column_from_block",
    "pack_field_column",
    "project_records",
    "table_records",
    "to_columns",
    "value_to_table",
]
