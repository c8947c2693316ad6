"""Field plans and typed table values.

A *field plan* lists a registered dataclass's fields in the order its
row encoding visits them, each with the scalar kind its default value
has (:func:`column_plan`).  It comes from the dataclass field list
alone: a class with a ``serialize`` method (whatever it does), one that
intercepts attribute assignment (a frozen dataclass among them) or one
that is not a dataclass has no plan.

A class table held as numpy columns is written from its plan:
:func:`plan_table` gives the :class:`TableLayout` that writes its rows
as a *typed table value* -- packed records in the columns' own dtypes
-- which decodes to the same objects as the row encoding (the ingest
path of :mod:`repro.hepnos.loader`).
"""

from __future__ import annotations

import dataclasses
import inspect
import struct
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.errors import SerializationError
from repro.serial import archive as _A

#: a default's type, or a field annotation (the type or its name) -> the
#: kind a plan names; anything else is "generic" (``None``).
_KINDS = {**{t: t for t in (float, int, bool, str, bytes)},
          **{t.__name__: t for t in (float, int, bool, str, bytes)}}


def _uvarint(value: int) -> bytes:
    out = bytearray()
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def _is_generated_init(cls: type) -> bool:
    """Whether ``cls.__init__`` is the one ``@dataclass`` generated.

    The decorator builds its methods from source text (and renames
    their ``__qualname__`` to look hand-written), so the code object's
    file name is what tells them from an ``__init__`` in a source file.
    """
    init = cls.__dict__.get("__init__")
    code = getattr(init, "__code__", None)
    return code is not None and code.co_filename == "<string>"


def _plan_dataclass(cls: type) -> Optional[list]:
    fields = dataclasses.fields(cls)
    if not fields:
        return None
    try:
        instance = cls()
    except TypeError:
        instance = None  # the row decode uses __new__ here too
    except Exception:
        return None
    plan = []
    for f in fields:
        if instance is not None and hasattr(instance, f.name):
            kind = _KINDS.get(type(getattr(instance, f.name)))
        else:
            kind = _KINDS.get(f.type)
        plan.append((f.name, kind))
    return plan


#: registered class -> its field plan, or None when it has none.
_PLANS: Dict[type, Optional[list]] = {}


def _compute_plan(cls: type) -> Optional[list]:
    # A serialize method decides the row encoding itself, and a class
    # that intercepts assignment may not hold what it was given.
    if (callable(getattr(cls, "serialize", None))
            or getattr(cls, "__setattr__", None) is not object.__setattr__
            or not dataclasses.is_dataclass(cls)):
        return None
    return _plan_dataclass(cls)


def column_plan(cls: type) -> Optional[list]:
    """``[(field, kind), ...]`` for ``cls``, or ``None``.

    ``kind`` is one of ``float``/``int``/``bool``/``str``/``bytes`` or
    ``None`` (generic).  Only registered classes are planned -- the wire
    format names the class, so an unregistered one could not be rebuilt
    on the other side.  The result is cached per registered class; an
    unregistered class is asked again, so registering it later counts.
    """
    if cls not in _PLANS:
        if cls not in _A._BY_TYPE:
            return None
        _PLANS[cls] = _compute_plan(cls)
    return _PLANS[cls]


# -- typed table values ---------------------------------------------------------

#: dtypes a table record field may have; a header names one by its index.
TABLE_DTYPES = tuple(np.dtype(code) for code in (
    "|b1", "|i1", "<i2", "<i4", "<i8", "|u1", "<u2", "<u4", "<u8",
    "<f2", "<f4", "<f8"))
_TABLE_CODES = {dtype: code for code, dtype in enumerate(TABLE_DTYPES)}
#: the ``struct`` code a record field of each dtype unpacks with.  None
#: for ``<f2``: struct's ``e`` turns a half-float NaN payload into the
#: canonical NaN, which numpy keeps (the identity is byte-level).
_STRUCT_CODES = dict(zip(TABLE_DTYPES, ("?", "b", "h", "i", "q", "B", "H",
                                        "I", "Q", None, "f", "d")))


def _table_fields(cls: type) -> Optional[list]:
    """Field names if ``cls(*record)`` rebuilds exactly the object the
    row encoding holds -- a planned dataclass whose generated
    ``__init__`` takes its fields positionally, in order, and only
    assigns them -- else ``None``."""
    plan = column_plan(cls)
    if plan is None:
        return None
    if not _is_generated_init(cls) or hasattr(cls, "__post_init__"):
        return None
    names = [name for name, _kind in plan]
    positional = [p.name for p in inspect.signature(cls).parameters.values()
                  if p.kind is p.POSITIONAL_OR_KEYWORD]
    # an init=False or keyword-only field, or an InitVar between them
    return names if positional == names else None


class TableLayout:
    """How the rows of one class lie in a typed table value.

    ``header`` is the value up to the row count; ``dtype`` the packed
    little-endian record, one field per class field in class order;
    ``rows(records)`` iterates the records as tuples of Python values,
    those ``np.frombuffer(records, dtype).tolist()`` gives.
    """

    __slots__ = ("cls", "fields", "header", "dtype", "rows")

    def __init__(self, cls: type, fields: Sequence[str],
                 dtypes: Sequence[np.dtype]):
        self.cls = cls
        self.fields = tuple(fields)
        record = self.dtype = np.dtype(list(zip(fields, dtypes)))
        codes = [_STRUCT_CODES[dtype] for dtype in dtypes]
        self.rows = (
            struct.Struct("<" + "".join(codes)).iter_unpack if None not in codes
            else lambda records: np.frombuffer(records, record).tolist())
        name = _A._BY_TYPE[cls].encode("utf-8")
        self.header = b"".join((
            _A._TAG_TABLE, _uvarint(len(name)), name,
            _uvarint(_A._VERSIONS[cls]), _uvarint(len(dtypes)),
            bytes(_TABLE_CODES[dtype] for dtype in dtypes)))

    def records(self, columns: Mapping[str, np.ndarray],
                order: np.ndarray) -> memoryview:
        """The bytes of rows ``order`` of aligned ``columns`` as records."""
        records = np.empty(len(order), dtype=self.dtype)
        for name in self.fields:
            records[name] = columns[name][order]
        return memoryview(records.view(np.uint8))

    def value(self, records: memoryview, start: int, stop: int) -> bytes:
        """The table value of rows ``start..stop`` of :meth:`records`;
        ``loads`` of it gives those rows' objects."""
        return self.values(records, [start, stop])[0]

    def values(self, records: memoryview, bounds: Sequence[int]) -> list:
        """:meth:`value` of the rows between each two consecutive
        ``bounds``, built in one pass: each distinct row count's header
        is encoded once, and a value is that header and a slice."""
        bounds = np.asarray(bounds, dtype=np.int64)
        edges = (bounds * self.dtype.itemsize).tolist()
        counts = np.diff(bounds).tolist()
        heads = {count: self.header + _uvarint(count) for count in set(counts)}
        return [heads[count] + records[start:stop] for count, start, stop
                in zip(counts, edges, edges[1:])]


def plan_table(cls: type, dtypes: Mapping[str, np.dtype]
               ) -> Optional[TableLayout]:
    """The :class:`TableLayout` to write a table of ``cls`` rows with, or
    ``None``.

    ``dtypes`` maps field name to the dtype of the column holding it.
    The contract is object identity with the row encoding: every value
    the layout writes decodes to the list of ``cls(**{field:
    column[i].item(), ...})`` objects.  The plan declines (``None``)
    whenever it cannot vouch for that: the class has no field plan
    (:func:`column_plan`), it has a ``serialize`` method or an
    ``__init__`` that does more than assign its fields, its fields and
    the columns are not the same set, or a column's dtype is not one of
    :data:`TABLE_DTYPES` in either byte order.
    """
    fields = _table_fields(cls)
    if fields is None or set(fields) != set(dtypes):
        return None
    stored = [dtypes[name].newbyteorder("<") for name in fields]
    if any(dtype not in _TABLE_CODES for dtype in stored):
        return None
    return TableLayout(cls, fields, stored)


def table_layout(name: str, codes: bytes) -> TableLayout:
    """The layout a table header of ``name`` with ``codes`` is read with."""
    cls = _A.registered_type(name)
    fields = _table_fields(cls)
    if fields is None or len(fields) != len(codes):
        raise SerializationError(
            f"{name!r} is not registered as a table class of "
            f"{len(codes)} fields")
    if max(codes) >= len(TABLE_DTYPES):
        raise SerializationError(
            f"table of {name!r} has an unknown dtype code {max(codes)}")
    return TableLayout(cls, fields, [TABLE_DTYPES[code] for code in codes])
