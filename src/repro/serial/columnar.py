"""Struct-of-arrays columnar layout for registered product classes.

HEP selection is embarrassingly columnar: a Cut touches two or three
fields of every slice, yet the row-wise archive ships and decodes whole
objects.  This module provides the transposed view, in one column form:
a projected column is a little-endian numeric array (``<f8``, ``<i8``
or ``|b1``, by the kind its class's field plan gives the field).

- :func:`column_plan` (from :mod:`repro.serial.compiled`) is a class's
  column schema, planned from its dataclass field list;
- :func:`to_columns` transposes a homogeneous object list into one
  array per ``float``/``int``/``bool`` field, with strict ``type(v)
  is`` guards; a field of another kind, or one with a value that fails
  its guard, stays the plain value list -- never a lossy cast;
- :func:`table_records` / :func:`project_records` give the same arrays
  for a stored *typed table value* (what ingest writes) straight from
  its record bytes, without building a row; :func:`table_projection`
  and :func:`records_fit` tell beforehand whether they can;
- the ``*_block`` helpers translate arrays to and from the wire blocks
  of the ``yokan.scan_columns`` projection RPC.

A value that cannot give every requested field as such an array -- its
class unregistered or unplanned, a field missing, of a non-numeric
kind or failing its guard -- travels row-wise ("raw") and every
consumer decodes it per object, so the columnar path can narrow the
data but never change it.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

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
#: dtype kinds a projected column may have.
_NUMERIC = "biuf"


def _column_for(objs: Sequence[Any], name: str, kind) -> Any:
    """One column: a numeric array, or the value list when the field is
    not numeric or a value fails its guard (an int outside int64 too)."""
    vals = [getattr(o, name) for o in objs]
    if kind is int:
        for v in vals:
            if type(v) is not int or not _I64_MIN <= v <= _I64_MAX:
                return vals
    elif kind in COLUMN_DTYPES:
        for v in vals:
            if type(v) is not kind:
                return vals
    else:
        return vals
    return np.array(vals, dtype=COLUMN_DTYPES[kind])


def to_columns(objs: Sequence[Any]) -> Optional[Tuple[int, Dict[str, Any]]]:
    """Transpose a homogeneous list of planned products into columns.

    Returns ``(row_count, {field: array_or_list})`` covering *every*
    field of the class -- a value list where a field is not numeric or
    a value fails its guard, which the projection never ships -- or
    ``None`` when the list is empty, heterogeneous, or its class has no
    column plan (callers then keep the row-wise value).
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


def table_projection(layout, fields: Sequence[str]
                     ) -> Optional[Tuple[str, ...]]:
    """Whether ``fields`` project from records of ``layout``: ``None``
    when one is not a field of the class or is stored in a dtype its
    plan kind does not take, else the ``<u8`` fields among them, whose
    values must also fit an int64 (:func:`records_fit`)."""
    kinds = dict(column_plan(layout.cls))
    wide = []
    for name in fields:
        if name not in kinds:
            return None
        dtype = layout.dtype.fields[name][0]
        if dtype.kind not in _DTYPE_KINDS.get(kinds[name], ""):
            return None
        if dtype == np.uint64:
            wide.append(name)
    return tuple(wide)


def records_fit(layout, records, wide: Sequence[str]) -> bool:
    """Whether every value of the ``wide`` (``<u8``) fields of packed
    records fits an int64 column."""
    table = np.frombuffer(records, dtype=layout.dtype)
    return all(table[name].max() <= _I64_MAX for name in wide)


def project_records(layout, records, fields: Sequence[str]
                    ) -> Dict[str, np.ndarray]:
    """``fields`` of packed table records as the arrays :func:`to_columns`
    gives for the decoded rows (widened to the plan kind's column
    dtype); a :class:`SerializationError` when a field is not
    projectable."""
    wide = table_projection(layout, fields)
    if wide is None or wide and not records_fit(layout, records, wide):
        raise SerializationError(
            f"fields {list(fields)} of {layout.cls.__qualname__} records "
            "are not projectable")
    table = np.frombuffer(records, dtype=layout.dtype)
    kinds = dict(column_plan(layout.cls))
    return {name: table[name].astype(COLUMN_DTYPES[kinds[name]])
            for name in fields}


# -- wire blocks for the scan_columns projection ------------------------------


def pack_field_column(tables: Sequence[Dict[str, Any]],
                      name: str) -> Tuple[str, bytes]:
    """Concatenate one field across per-container tables into a wire block.

    Returns ``(dtype_str, payload)``: the raw bytes of one little-endian
    numeric array.  Every piece must be a numeric array of one dtype (a
    :class:`SerializationError` otherwise: a value that cannot give one
    travels raw instead).
    """
    parts = [t[name] for t in tables]
    if not parts:
        return COLUMN_DTYPES[float], b""
    dtypes = {p.dtype if isinstance(p, np.ndarray) else None for p in parts}
    dtype = dtypes.pop()
    if dtypes or dtype is None or dtype.kind not in _NUMERIC:
        raise SerializationError(
            f"field {name!r} is not one numeric column across its tables")
    merged = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return merged.dtype.str, merged.tobytes()


def column_from_block(dtype_str: str, payload, total_rows: int) -> np.ndarray:
    """Decode one wire block back into a column of ``total_rows`` values:
    a zero-copy ``np.frombuffer`` view over ``payload``."""
    try:
        dtype = np.dtype(dtype_str)
    except TypeError:
        raise CorruptionError(f"column block has bad dtype {dtype_str!r}")
    if dtype.kind not in _NUMERIC:
        raise CorruptionError(
            f"column block has non-numeric dtype {dtype_str!r}")
    arr = np.frombuffer(payload, dtype=dtype) if len(payload) else \
        np.empty(0, dtype=dtype)
    if arr.shape[0] != total_rows:
        raise CorruptionError(
            f"column block has {arr.shape[0]} rows, expected {total_rows}")
    return arr


__all__ = [
    "COLUMN_DTYPES",
    "column_plan",
    "column_from_block",
    "pack_field_column",
    "project_records",
    "records_fit",
    "table_projection",
    "table_records",
    "to_columns",
    "value_to_table",
]
