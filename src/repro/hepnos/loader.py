"""HDF2HEPnOS: schema discovery, class generation, and bulk ingest.

The paper's HDF2HEPnOS tool (section IV-B) analyzes the structure of an
HDF5 file, deduces each stored class and its member variables, and
generates code to load instances from HDF5 into HEPnOS.  Input files
contain leaf groups -- one per C++ class -- holding equal-length 1-D
tables: ``run``, ``subrun``, ``event`` (the identifiers) plus one table
per member variable.

Here:

- :func:`discover_schema` walks an hdf5lite file and returns one
  :class:`TableSchema` per class table;
- :func:`generate_class_code` emits the Python source of the product
  class (the analogue of the generated C++ header);
- :func:`build_product_class` creates and registers the class at
  runtime;
- :class:`DataLoader` ingests files into a dataset, event-granular,
  using write batches; with a communicator it splits the file list
  across ranks -- the only HEPnOS workflow step whose parallelism is
  bounded by the number of files.

Ingest never leaves the file's representation: a class table is laid
out as packed records in its columns' own dtypes
(:func:`repro.serial.compiled.plan_table`) and each event's product is a
*typed table value* over its slice of them, which decodes to the event's
row objects and projects to columns without decoding at all.  Row
objects are only built, and row-encoded, for classes the plan declines.
"""

from __future__ import annotations

import dataclasses
import keyword
import threading
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import HEPnOSError, SerializationError
from repro.hdf5lite import H5LiteFile
from repro.hepnos import keys as hkeys
from repro.hepnos.product import vector_of
from repro.hepnos.write_batch import WriteBatch
from repro.serial import dumps, register_type, registered_type
from repro.serial.compiled import plan_table
from repro.utils import encode_u64_be

#: Recognized spellings of the identifier columns.
_ID_COLUMNS = {
    "run": ("run",),
    "subrun": ("subrun", "subRun"),
    "event": ("event", "evt", "cycle_evt"),
}


@dataclass(frozen=True)
class TableSchema:
    """The discovered schema of one class table."""

    class_name: str           # e.g. "rec.slc"
    group_path: str           # path of the leaf group inside the file
    id_columns: dict          # logical name -> actual column name
    value_columns: tuple      # ((name, dtype_str), ...)
    length: int               # number of rows

    @property
    def python_class_name(self) -> str:
        """A valid Python identifier for the generated class."""
        name = "".join(
            part.capitalize() for part in self.class_name.replace(".", "_").split("_")
        )
        return name or "Anonymous"


def _find_id_columns(names: Sequence[str]) -> Optional[dict]:
    found = {}
    for logical, spellings in _ID_COLUMNS.items():
        for spelling in spellings:
            if spelling in names:
                found[logical] = spelling
                break
        else:
            return None
    return found


def discover_schema(h5file: H5LiteFile) -> list[TableSchema]:
    """All class tables in the file, sorted by group path."""
    schemas = []
    for group in h5file.walk():
        if not group.is_leaf_table():
            continue
        names = group.datasets()
        ids = _find_id_columns(names)
        if ids is None:
            continue
        id_names = set(ids.values())
        value_columns = tuple(
            (name, group.dataset_info(name).dtype)
            for name in names
            if name not in id_names
        )
        class_name = group.attrs.get("class", group.path.replace("/", "."))
        schemas.append(TableSchema(
            class_name=class_name,
            group_path=group.path,
            id_columns=ids,
            value_columns=value_columns,
            length=group.dataset_info(names[0]).length,
        ))
    return sorted(schemas, key=lambda s: s.group_path)


def _python_field_name(column: str) -> str:
    name = column.replace(".", "_").replace("-", "_")
    if not name.isidentifier() or keyword.iskeyword(name):
        name = "f_" + "".join(c if c.isalnum() else "_" for c in column)
    return name


def _python_type_for(dtype_str: str) -> type:
    kind = np.dtype(dtype_str).kind
    if kind == "f":
        return float
    if kind in ("i", "u"):
        return int
    if kind == "b":
        return bool
    raise HEPnOSError(f"unsupported column dtype {dtype_str!r}")


def generate_class_code(schema: TableSchema) -> str:
    """Python source for the product class (the generated-C++ analogue)."""
    lines = [
        "import dataclasses",
        "",
        "from repro.serial import register_type",
        "",
        "",
        "@dataclasses.dataclass",
        f"class {schema.python_class_name}:",
        f'    """Generated from table {schema.group_path!r}."""',
        "",
    ]
    if not schema.value_columns:
        lines.append("    pass")
    for column, dtype_str in schema.value_columns:
        ptype = _python_type_for(dtype_str)
        default = {float: "0.0", int: "0", bool: "False"}[ptype]
        lines.append(
            f"    {_python_field_name(column)}: {ptype.__name__} = {default}"
        )
    lines += [
        "",
        "",
        f"register_type({schema.python_class_name}, {schema.class_name!r})",
        "",
    ]
    return "\n".join(lines)


def build_product_class(schema: TableSchema) -> type:
    """Create and register the product class for ``schema`` at runtime."""
    fields = []
    for column, dtype_str in schema.value_columns:
        ptype = _python_type_for(dtype_str)
        default = {float: 0.0, int: 0, bool: False}[ptype]
        fields.append((_python_field_name(column), ptype,
                       dataclasses.field(default=default)))
    cls = dataclasses.make_dataclass(schema.python_class_name, fields)
    register_type(cls, schema.class_name)
    return cls


@dataclass
class IngestStats:
    """What one ingest call accomplished."""

    files: int = 0
    tables: int = 0
    rows: int = 0
    events_created: int = 0
    products_stored: int = 0

    def merge(self, other: "IngestStats") -> "IngestStats":
        self.files += other.files
        self.tables += other.tables
        self.rows += other.rows
        self.events_created += other.events_created
        self.products_stored += other.products_stored
        return self


_CLASS_LOCK = threading.Lock()


def _run_starts(sorted_ids: np.ndarray) -> np.ndarray:
    """Where each run of equal columns of ``sorted_ids`` starts, then
    the end."""
    changes = np.any(np.diff(sorted_ids, axis=1) != 0, axis=0)
    return np.concatenate(([0], np.nonzero(changes)[0] + 1,
                           [sorted_ids.shape[1]]))


class DataLoader:
    """Ingests hdf5lite files into a HEPnOS dataset.

    Each class table contributes, per (run, subrun, event) triple, one
    product of type ``vector<Class>`` containing that event's rows,
    stored under ``label``.  Containers are created on demand.
    """

    def __init__(self, datastore, dataset_path: str, label: str = ""):
        self.datastore = datastore
        self.dataset = datastore.create_dataset(dataset_path)
        self.label = label
        self._classes: dict[str, type] = {}

    def _class_for(self, schema: TableSchema) -> type:
        cls = self._classes.get(schema.class_name)
        if cls is None:
            # Ingest ranks are threads sharing one type registry: two
            # that meet a new table together must not both build it.
            with _CLASS_LOCK:
                try:
                    cls = registered_type(schema.class_name)
                except SerializationError:
                    cls = build_product_class(schema)
            self._classes[schema.class_name] = cls
        return cls

    # -- single-file ingest ------------------------------------------------------

    def ingest_file(self, path: str, batch: Optional[WriteBatch] = None) -> IngestStats:
        stats = IngestStats(files=1)
        own_batch = batch is None
        if own_batch:
            batch = WriteBatch(self.datastore,
                               flush_threshold=4096)
        with H5LiteFile.open(path) as h5:
            schemas = discover_schema(h5)
            if not schemas:
                raise HEPnOSError(f"{path}: no class tables found")
            created: set[bytes] = set()
            for schema in schemas:
                stats.tables += 1
                self._ingest_table(h5, schema, batch, created, stats)
        if own_batch:
            batch.close()
        return stats

    def _ingest_table(self, h5: H5LiteFile, schema: TableSchema,
                      batch: WriteBatch, created: set, stats: IngestStats) -> None:
        group = h5.root.group(schema.group_path)
        ids = [group.read(schema.id_columns[name]).astype(np.int64)
               for name in ("run", "subrun", "event")]
        for column in ids:
            if len(column) and column.min() < 0:
                encode_u64_be(int(column.min()))  # raises as a key would
        runs, subruns, events = ids
        columns = {
            _python_field_name(name): group.read(name)
            for name, _ in schema.value_columns
        }
        cls = self._class_for(schema)
        n = len(runs)
        stats.rows += n
        if n == 0:
            return
        # Group rows by (run, subrun, event) with one argsort.
        order = np.lexsort((events, subruns, runs))
        sorted_ids = np.stack([runs[order], subruns[order], events[order]])
        starts = _run_starts(sorted_ids)
        values = self._event_values(cls, columns, order, starts)
        # Every event key in one pass: the dataset uuid, then the run,
        # subrun and event numbers big-endian, cut from one buffer.
        firsts = sorted_ids[:, starts[:-1]]
        width, uuid = hkeys.EVENT_KEY_LEN, self.dataset.uuid
        rows = np.empty((firsts.shape[1], width), np.uint8)
        rows[:, :hkeys.UUID_LEN] = np.frombuffer(uuid, np.uint8)
        rows[:, hkeys.UUID_LEN:] = firsts.T.astype(">u8", order="C").view(
            np.uint8)
        flat = rows.tobytes()
        ekeys = [flat[i:i + width] for i in range(0, len(flat), width)]
        # Events arrive sorted: one write-batch run per subrun.
        bounds = _run_starts(firsts[:2]).tolist()
        tname = vector_of(cls).name
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            run_keys = ekeys[lo:hi]
            skey = run_keys[0][:hkeys.SUBRUN_KEY_LEN]
            rkey = skey[:hkeys.RUN_KEY_LEN]
            containers = [((kind, parent), [key]) for kind, parent, key in
                          (("runs", uuid, rkey), ("subruns", rkey, skey))
                          if key not in created]
            fresh = [key for key in run_keys if key not in created]
            if fresh:
                containers.append((("events", skey), fresh))
            for _, new in containers:
                created.update(new)
            stats.events_created += len(fresh)
            self.datastore.store_encoded_products(
                run_keys, tname, values[lo:hi], label=self.label,
                batch=batch, containers=containers)
            stats.products_stored += hi - lo

    def _event_values(self, cls: type, columns: dict, order: np.ndarray,
                      starts: np.ndarray):
        """Each event's serialized ``vector<cls>``, in sorted event order.

        ``starts`` are the events' first positions in ``order`` (plus
        the end).  Every value decodes to the event's row objects; those
        are only built when the table plan declines the class.
        """
        layout = plan_table(
            cls, {name: column.dtype for name, column in columns.items()})
        if layout is not None:
            return layout.values(layout.records(columns, order), starts)
        bounds = starts.tolist()
        return [dumps([
            cls(**{name: column[idx].item()
                   for name, column in columns.items()})
            for idx in order[lo:hi]
        ]) for lo, hi in zip(bounds[:-1], bounds[1:])]

    # -- parallel ingest ---------------------------------------------------------

    def ingest(self, paths: Sequence[str], comm=None) -> IngestStats:
        """Ingest many files; with a communicator, ranks split the list.

        Returns the global statistics on every rank (allreduced).
        """
        local = IngestStats()
        if comm is None:
            my_paths = list(paths)
        else:
            my_paths = [p for i, p in enumerate(paths)
                        if i % comm.size == comm.rank]
        for path in my_paths:
            local.merge(self.ingest_file(path))
        if comm is None:
            return local
        totals = comm.allreduce(
            (local.files, local.tables, local.rows,
             local.events_created, local.products_stored),
            op=lambda a, b: tuple(x + y for x, y in zip(a, b)),
        )
        return IngestStats(*totals)
