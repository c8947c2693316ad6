"""Compiled per-class serializers: the archive's data-plane fast path.

:func:`compile_class` is invoked from
:func:`repro.serial.archive.register_type`.  For eligible classes it
generates (``exec``-compiles) a per-class encoder and decoder whose
output is byte-identical to the interpreted archive path, with the
per-field tag dispatch specialized away:

- the object header (tag, registered name, version) is a precomputed
  constant written in one call;
- scalar fields get inline encode/decode with a runtime type guard
  (``type(v) is float`` etc.); any value that fails its guard falls
  back to the interpreted ``_write_value``/``_read_value`` for that
  field, so compiled output can never diverge from the reference;
- runs of two or more consecutive float fields share a single
  ``struct.Struct`` that packs the interleaved tag bytes and doubles
  in one call (the dominant shape of HEP product classes, e.g.
  ``nova.SliceData``'s twelve calorimetry/PID doubles);
- everything else (containers, nested objects, arrays) routes through
  the interpreted encoder, which re-enters compiled dispatch for
  nested registered classes.

Eligibility (anything else stays fully interpreted):

- plain dataclasses, via their field list; and
- fixed-field ``serialize(self, ar)`` classes, discovered by a
  registration-time *sentinel probe*: a default instance's attributes
  are replaced with unique sentinels and ``serialize`` is run against
  recording/replaying archives.  The class compiles only if the visit
  sequence maps one-to-one onto its attributes in a fixed order and
  ``ar.io`` return values are assigned straight back -- i.e. the
  method is equivalent to a field list.

Classes whose ``serialize`` takes the schema ``version`` argument are
never compiled (their field layout may be version-dependent), and a
compiled decoder only serves payloads whose stored version matches the
registered version it was built against; older payloads decode through
the interpreted path, preserving schema evolution.

A class table held as numpy columns skips all of this: for plain
dataclasses :func:`plan_table` gives the :class:`TableLayout` that
writes its rows as a *typed table value* -- packed records in the
columns' own dtypes -- which decodes to the same objects as the row
encoding (the ingest path of :mod:`repro.hepnos.loader`).
"""

from __future__ import annotations

import dataclasses
import inspect
import keyword
import struct
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from repro.errors import SerializationError
from repro.serial import archive as _A

#: field kinds with specialized codegen; anything else is "generic".
_SCALARS = (float, int, bool, str, bytes)

# -- small write tables: one ``write`` call per common scalar ---------------

_ONE = tuple(bytes((i,)) for i in range(256))
_INT1 = _A._HEADS[_A._T_INT]
_STR1 = _A._HEADS[_A._T_STR]
_BYTES1 = _A._HEADS[_A._T_BYTES]

_FLOAT1_PACK = _A._FLOAT1_PACK

_RUN_STRUCTS: dict[int, struct.Struct] = {}


def _run_struct(n: int) -> struct.Struct:
    s = _RUN_STRUCTS.get(n)
    if s is None:
        s = struct.Struct("<" + "Bd" * n)
        _RUN_STRUCTS[n] = s
    return s


def _uvarint(value: int) -> bytes:
    out = bytearray()
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def _object_header(name: str, version: int) -> bytes:
    encoded = name.encode("utf-8")
    return (bytes((_A._T_OBJECT,)) + _uvarint(len(encoded)) + encoded
            + _uvarint(version))


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

    The decorator ``exec``s its methods from a string (and renames
    their ``__qualname__`` to look hand-written), so the code object's
    file name is what tells them from an ``__init__`` in a source file.
    """
    init = cls.__dict__.get("__init__")
    code = getattr(init, "__code__", None)
    return code is not None and code.co_filename == "<string>"


def _plan_dataclass(cls: type) -> Optional[tuple]:
    params = getattr(cls, "__dataclass_params__", None)
    if params is not None and params.frozen:
        # The interpreted path assigns fields via setattr in both
        # directions, so frozen dataclasses cannot round-trip at all;
        # compiling an encoder would silently change that.
        return None
    try:
        fields = dataclasses.fields(cls)
    except TypeError:
        return None
    if not fields:
        return None
    field_names = {f.name for f in fields}
    try:
        instance = cls()
    except TypeError:
        instance = None  # interpreted decode uses __new__ here too
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
    if instance is None:
        maker = _new_maker(cls)
    elif (set(vars(instance)) == field_names
          and not hasattr(cls, "__post_init__")
          and _is_generated_init(cls)):
        # The generated __init__ only assigns the fields we are about
        # to overwrite, so allocation-only construction is equivalent
        # (and skips one full pass of default assignments).
        maker = _new_maker(cls)
    else:
        maker = cls
    return plan, maker


def _new_maker(cls: type) -> Callable:
    def make():
        return cls.__new__(cls)

    return make


# -- codegen -----------------------------------------------------------------


def _build_encoder(cls: type, fields: list, header: bytes) -> Callable:
    ns = {
        "_wv": _A.OutputArchive._write_value,
        "_HEADER": header,
        "_ONE": _ONE,
        "_I1": _INT1,
        "_S1": _STR1,
        "_B1": _BYTES1,
        "_FP": _FLOAT1_PACK,
        "_TINT": _A._TAG_INT,
        "_TSTR": _A._TAG_STR,
        "_TBYT": _A._TAG_BYTES,
        "_TT": _A._TAG_TRUE,
        "_TF": _A._TAG_FALSE,
    }
    ftag = _A._T_FLOAT
    src = ["def _enc(obj, ar):",
           "    w = ar._buf.write",
           "    w(_HEADER)"]
    i = 0
    n = len(fields)
    while i < n:
        name, kind = fields[i]
        if kind is float:
            j = i
            while j < n and fields[j][1] is float:
                j += 1
            run = fields[i:j]
            if len(run) == 1:
                src += [
                    f"    v{i} = obj.{name}",
                    f"    if type(v{i}) is float:",
                    f"        w(_FP({ftag}, v{i}))",
                    "    else:",
                    f"        _wv(ar, v{i})",
                ]
            else:
                pack = f"_RP{i}"
                ns[pack] = _run_struct(len(run)).pack
                for k, (rname, _) in enumerate(run):
                    src.append(f"    v{i + k} = obj.{rname}")
                guard = " and ".join(
                    f"type(v{i + k}) is float" for k in range(len(run))
                )
                args = ", ".join(f"{ftag}, v{i + k}" for k in range(len(run)))
                src += [f"    if {guard}:", f"        w({pack}({args}))",
                        "    else:"]
                src += [f"        _wv(ar, v{i + k})" for k in range(len(run))]
            i = j
            continue
        if kind is int:
            src += [
                f"    v{i} = obj.{name}",
                f"    if type(v{i}) is int:",
                f"        z = (v{i} << 1) if v{i} >= 0 else ((-v{i} << 1) - 1)",
                "        if z < 128:",
                "            w(_I1[z])",
                "        else:",
                "            w(_TINT)",
                "            while z > 127:",
                "                w(_ONE[(z & 127) | 128])",
                "                z >>= 7",
                "            w(_ONE[z])",
                "    else:",
                f"        _wv(ar, v{i})",
            ]
        elif kind is bool:
            src += [
                f"    v{i} = obj.{name}",
                f"    if v{i} is True:",
                "        w(_TT)",
                f"    elif v{i} is False:",
                "        w(_TF)",
                "    else:",
                f"        _wv(ar, v{i})",
            ]
        elif kind is str:
            src += [
                f"    v{i} = obj.{name}",
                f"    if type(v{i}) is str:",
                f"        b = v{i}.encode('utf-8')",
                "        m = len(b)",
                "        if m < 128:",
                "            w(_S1[m])",
                "        else:",
                "            w(_TSTR)",
                "            while m > 127:",
                "                w(_ONE[(m & 127) | 128])",
                "                m >>= 7",
                "            w(_ONE[m])",
                "        w(b)",
                "    else:",
                f"        _wv(ar, v{i})",
            ]
        elif kind is bytes:
            src += [
                f"    v{i} = obj.{name}",
                f"    if type(v{i}) is bytes:",
                f"        m = len(v{i})",
                "        if m < 128:",
                "            w(_B1[m])",
                "        else:",
                "            w(_TBYT)",
                "            while m > 127:",
                "                w(_ONE[(m & 127) | 128])",
                "                m >>= 7",
                "            w(_ONE[m])",
                f"        w(v{i})",
                "    else:",
                f"        _wv(ar, v{i})",
            ]
        else:
            src.append(f"    _wv(ar, obj.{name})")
        i += 1
    exec("\n".join(src), ns)
    encoder = ns["_enc"]
    encoder.__qualname__ = f"compiled_encode[{cls.__qualname__}]"
    return encoder


def _build_decoder(cls: type, fields: list, maker: Callable) -> Callable:
    ns = {
        "_rv": _A.InputArchive._read_value,
        "_ru": _A.InputArchive._read_uvarint,
        "_FU": _A._FLOAT_STRUCT.unpack_from,
        "_mk": maker,
    }
    itag, ftag = _A._T_INT, _A._T_FLOAT
    ttag, btag = _A._T_TRUE, _A._T_FALSE
    src = ["def _dec(ar):",
           "    d = ar._data",
           "    dlen = ar._len",
           "    obj = _mk()"]
    i = 0
    n = len(fields)
    while i < n:
        name, kind = fields[i]
        if kind is float:
            j = i
            while j < n and fields[j][1] is float:
                j += 1
            run = fields[i:j]
            m = len(run)
            if m == 1:
                src += [
                    "    p = ar._pos",
                    f"    if p + 9 <= dlen and d[p] == {ftag}:",
                    f"        obj.{name} = _FU(d, p + 1)[0]",
                    "        ar._pos = p + 9",
                    "    else:",
                    f"        obj.{name} = _rv(ar)",
                ]
            else:
                unpack = f"_RU{i}"
                ns[unpack] = _run_struct(m).unpack_from
                guard = " and ".join(
                    f"d[p + {9 * k}] == {ftag}" for k in range(m)
                )
                src += [
                    "    p = ar._pos",
                    f"    if p + {9 * m} <= dlen and {guard}:",
                    f"        t = {unpack}(d, p)",
                ]
                src += [
                    f"        obj.{rname} = t[{2 * k + 1}]"
                    for k, (rname, _) in enumerate(run)
                ]
                src.append(f"        ar._pos = p + {9 * m}")
                src.append("    else:")
                src += [f"        obj.{rname} = _rv(ar)" for rname, _ in run]
            i = j
            continue
        if kind is int:
            src += [
                "    p = ar._pos",
                f"    if p + 1 < dlen and d[p] == {itag}:",
                "        b = d[p + 1]",
                "        if b < 128:",
                f"            obj.{name} = (b >> 1) ^ -(b & 1)",
                "            ar._pos = p + 2",
                "        else:",
                "            ar._pos = p + 1",
                "            z = _ru(ar)",
                f"            obj.{name} = (z >> 1) ^ -(z & 1)",
                "    else:",
                f"        obj.{name} = _rv(ar)",
            ]
        elif kind is bool:
            src += [
                "    p = ar._pos",
                f"    if p < dlen and d[p] == {ttag}:",
                f"        obj.{name} = True",
                "        ar._pos = p + 1",
                f"    elif p < dlen and d[p] == {btag}:",
                f"        obj.{name} = False",
                "        ar._pos = p + 1",
                "    else:",
                f"        obj.{name} = _rv(ar)",
            ]
        else:
            src.append(f"    obj.{name} = _rv(ar)")
        i += 1
    src.append("    return obj")
    exec("\n".join(src), ns)
    decoder = ns["_dec"]
    decoder.__qualname__ = f"compiled_decode[{cls.__qualname__}]"
    return decoder


# -- entry point --------------------------------------------------------------


def compile_class(cls: type, name: str, version: int) -> Optional[tuple]:
    """Build (encoder, decoder) for ``cls``, or ``None`` if ineligible.

    The encoder has signature ``enc(obj, output_archive)``; the decoder
    ``dec(input_archive) -> obj`` and is ``None`` when only encoding is
    safe.  Both are byte-compatible with the interpreted path by
    construction (constant header + guarded per-field fast paths that
    fall back to the interpreted field codec).
    """
    if _A._serialize_takes_version(cls):
        return None
    if getattr(cls, "__setattr__", None) is not object.__setattr__:
        # Attribute assignment is intercepted; the probe cannot vouch
        # for equivalence, so leave the class interpreted.
        return None
    if callable(getattr(cls, "serialize", None)):
        plan = _probe_serialize_class(cls)
        maker: Optional[Callable] = cls
    elif dataclasses.is_dataclass(cls):
        planned = _plan_dataclass(cls)
        if planned is None:
            return None
        plan, maker = planned
    else:
        return None
    if not plan:
        return None
    for fname, _kind in plan:
        if not fname.isidentifier() or keyword.iskeyword(fname):
            return None
    header = _object_header(name, version)
    encoder = _build_encoder(cls, plan, header)
    decoder = _build_decoder(cls, plan, maker) if maker is not None else None
    return encoder, decoder


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
    row encoding holds -- a plain dataclass whose generated ``__init__``
    takes its fields positionally, in order, and only assigns them --
    else ``None``."""
    if cls not in _A._ALL_ENCODERS or callable(getattr(cls, "serialize", None)):
        return None
    if not _is_generated_init(cls) or hasattr(cls, "__post_init__"):
        return None
    names = [f.name for f in dataclasses.fields(cls)]
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
    whenever it cannot vouch for that: the class has no compiled encoder
    (or the fast path is pinned off), it has a ``serialize`` method or an
    ``__init__`` that does more than assign its fields, its fields and
    the columns are not the same set, or a column's dtype is not one of
    :data:`TABLE_DTYPES` in either byte order.
    """
    fields = _table_fields(cls) if cls in _A._ENCODERS else None
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
