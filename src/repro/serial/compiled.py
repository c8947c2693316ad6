"""Field plans and typed table values.

A *field plan* lists a registered class's fields in the order its row
encoding visits them, each with the scalar kind its default value has
(:func:`column_plan`).  Plain dataclasses are planned from their field
list; fixed-field ``serialize(self, ar)`` classes by a *sentinel
probe*: a default instance's attributes are replaced with unique
sentinels and ``serialize`` is run against recording/replaying
archives.  A class is planned only if the visit sequence maps
one-to-one onto its attributes in a fixed order and ``ar.io`` return
values are assigned straight back -- i.e. the method is equivalent to a
field list.  Classes whose ``serialize`` takes the schema ``version``
argument (their layout may be version-dependent), frozen dataclasses
and classes that intercept attribute assignment have no plan.

A class table held as numpy columns is written from its plan: for plain
dataclasses :func:`plan_table` gives the :class:`TableLayout` that
writes its rows as a *typed table value* -- packed records in the
columns' own dtypes -- which decodes to the same objects as the row
encoding (the ingest path of :mod:`repro.hepnos.loader`).
"""

from __future__ import annotations

import dataclasses
import inspect
import struct
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.errors import SerializationError
from repro.serial import archive as _A

#: field kinds a plan names; anything else is "generic" (``None``).
_SCALARS = (float, int, bool, str, bytes)


def _uvarint(value: int) -> bytes:
    out = bytearray()
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


# -- probing -----------------------------------------------------------------


class _ProbeFailure(Exception):
    pass


class _RecordingArchive:
    """Output-archive stand-in that records the exact objects visited."""

    is_output = True
    is_input = False

    def __init__(self, record: list):
        self._record = record

    def io(self, value):
        self._record.append(value)
        return value

    __call__ = io


class _ReplayArchive:
    """Input-archive stand-in that hands out a fixed value sequence."""

    is_output = False
    is_input = True

    def __init__(self, values: list):
        self._values = values
        self.consumed = 0

    def io(self, _ignored=None):
        if self.consumed >= len(self._values):
            raise _ProbeFailure("serialize read more fields than probed")
        value = self._values[self.consumed]
        self.consumed += 1
        return value

    __call__ = io


class _Opaque:
    __slots__ = ()


def _sentinel(kind: type, i: int):
    """A fresh, identity-unique value, scalar-typed where possible."""
    if kind is float:
        return 1.0e6 + i + 0.5
    if kind is int or kind is bool:
        # bool has only two identities; a unique int still flows through
        # ``ar.io`` untouched, which is all the probe needs.
        return 10**6 + i
    if kind is str:
        return "\x00sentinel-%d\x00" % i
    if kind is bytes:
        return b"\x00sentinel-%d\x00" % i
    return _Opaque()


def _probe_serialize_class(cls: type) -> Optional[list]:
    """Field plan for a fixed-field ``serialize`` class, or ``None``."""
    try:
        obj = cls()
    except Exception:
        return None
    names = list(vars(obj))
    if not names:
        return None
    originals = {n: getattr(obj, n) for n in names}
    sentinels = []
    by_id = {}
    for i, n in enumerate(names):
        s = _sentinel(type(originals[n]), i)
        sentinels.append(s)
        by_id[id(s)] = n
        setattr(obj, n, s)
    record: list = []
    try:
        obj.serialize(_RecordingArchive(record))
    except Exception:
        return None
    visited = []
    for value in record:
        attr = by_id.get(id(value))
        if attr is None:
            return None  # serialize visits derived/transformed values
        visited.append(attr)
    if len(visited) != len(names) or set(visited) != set(names):
        return None
    # Input direction: serialize must assign each ar.io() result to the
    # same attribute, in the same order, and create no new attributes.
    try:
        obj2 = cls()
    except Exception:
        return None
    replay = [_sentinel(type(originals[n]), 10**4 + j)
              for j, n in enumerate(visited)]
    ar = _ReplayArchive(replay)
    try:
        obj2.serialize(ar)
    except Exception:
        return None
    if ar.consumed != len(replay) or set(vars(obj2)) != set(names):
        return None
    for j, n in enumerate(visited):
        if getattr(obj2, n, None) is not replay[j]:
            return None
    return [(n, _kind_of(type(originals[n]))) for n in visited]


def _kind_of(t) -> Optional[type]:
    return t if t in _SCALARS else None


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
    params = getattr(cls, "__dataclass_params__", None)
    if params is not None and params.frozen:
        # The row encoding assigns fields via setattr in both
        # directions, so frozen dataclasses cannot round-trip at all.
        return None
    try:
        fields = dataclasses.fields(cls)
    except TypeError:
        return None
    if not fields:
        return None
    try:
        instance = cls()
    except TypeError:
        instance = None  # the row decode uses __new__ here too
    except Exception:
        return None
    _ANNOTATED = {"float": float, "int": int, "bool": bool, "str": str,
                  "bytes": bytes, float: float, int: int, bool: bool,
                  str: str, bytes: bytes}
    plan = []
    for f in fields:
        if instance is not None and hasattr(instance, f.name):
            kind = _kind_of(type(getattr(instance, f.name)))
        else:
            kind = _ANNOTATED.get(f.type)
        plan.append((f.name, kind))
    return plan


#: registered class -> its field plan, or None when it has none.
_PLANS: Dict[type, Optional[list]] = {}


def _compute_plan(cls: type) -> Optional[list]:
    if _A._serialize_takes_version(cls):
        return None  # field layout may be version-dependent
    if getattr(cls, "__setattr__", None) is not object.__setattr__:
        return None
    if callable(getattr(cls, "serialize", None)):
        return _probe_serialize_class(cls)
    if dataclasses.is_dataclass(cls):
        return _plan_dataclass(cls)
    return None


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
    if plan is None or callable(getattr(cls, "serialize", None)):
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
        width = self.dtype.itemsize
        return b"".join((self.header, _uvarint(stop - start),
                         records[start * width:stop * width]))


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
