"""Boost.Serialization-style binary archives.

HEPnOS stores products as serialized C++ objects: any type providing a
``serialize`` member works, as do native types and standard containers.
This package reproduces that contract for Python:

- a class participates by defining ``serialize(self, ar)`` and calling
  ``ar.io(...)`` on each member (the analogue of ``ar & x & y & z``), or
  by being a ``@dataclass`` (members are discovered automatically);
- primitives, ``str``/``bytes``, ``list``/``tuple``/``dict``/``set``,
  ``None`` and NumPy arrays serialize natively;
- :func:`register_type` names a class so values can be decoded in a
  process that did not encode them (the analogue of C++ type names).

One codec (:mod:`repro.serial.archive`) writes and reads every value.
A registered class's field plan (:func:`column_plan`) gives its columns
(:mod:`repro.serial.columnar`) and, for a plain dataclass, the typed
table its rows are stored as (:mod:`repro.serial.compiled`).
"""

from repro.serial.archive import (
    OutputArchive,
    InputArchive,
    dumps,
    loads,
    register_type,
    registered_type,
    type_name,
    class_version,
    serializable,
)
from repro.serial.columnar import (
    column_plan,
    to_columns,
)

__all__ = [
    "OutputArchive",
    "InputArchive",
    "dumps",
    "loads",
    "register_type",
    "registered_type",
    "type_name",
    "class_version",
    "serializable",
    "column_plan",
    "to_columns",
]
