"""HEPnOS: the High Energy Physics new Object Store (the paper's system).

HEPnOS organizes data the way HEP scientists do (paper section II-A):

- **datasets** are named containers, nested like folders;
- **runs**, **subruns** and **events** are numbered containers
  (runs in datasets, subruns in runs, events in subruns);
- any run/subrun/event holds zero or more **products**: serialized
  objects identified by a *label* and a *type*.

Usage mirrors the paper's Listing 1.  :func:`connect` opens a
:class:`TenantSession` that owns the whole client side (datastore,
async engine, tenant identity) behind one context manager::

    with hepnos.connect(servers=servers, tenant="nova-prod") as session:
        ds = session.create_dataset("fermilab/nova")

The lower-level constructors remain public and unchanged::

    datastore = DataStore.connect(fabric, connection)
    ds = datastore.create_dataset("fermilab/nova")
    run = ds.create_run(43)
    subrun = run.create_subrun(56)
    event = subrun.create_event(25)
    event.store(particles, label="tracker")
    loaded = event.load(vector_of(Particle), label="tracker")
    for subrun in run:
        print(subrun.number)

Performance features (section II-D): :class:`WriteBatch` and
:class:`AsynchronousWriteBatch` group updates per target database;
:class:`Prefetcher` is the one event reader -- pages of event keys,
each loaded with one request per product database, handed out as
:class:`PrefetchedEvent` views; :class:`ParallelEventProcessor` puts a
load-balancing MPI pull protocol on top of it; and
:class:`AsyncEngine` pipelines all of the above through a bounded
window of non-blocking operations (futures with wait/test/then/cancel
semantics, retired under the client retry policy).

This module is the complete public client surface: handle types
(:class:`DataStore`, :class:`DataSet`, :class:`Run`, :class:`SubRun`,
:class:`Event`, :class:`ProductID`), the async layer
(:class:`AsyncEngine`, :class:`OperationFuture`), the load plan
(:class:`LoadPlan`, :class:`PendingLoad`),
the performance objects, and their configuration dataclasses
(:class:`PEPOptions`, :class:`ProductCacheOptions`,
:class:`QuotaOptions` -- all living in the :mod:`repro.hepnos.options`
namespace).  Application code
never needs raw ``container_key`` bytes: store and load products
through the typed handles (``event.store(obj, label)``,
``event.load(Type, label)``).  The exception hierarchy is importable
from :mod:`repro.errors`.
"""

from repro.hepnos.column_block import ColumnBlock, EventBatch
from repro.hepnos.connection import (
    ConnectionInfo,
    DbTarget,
    connection_from_servers,
)
from repro.hepnos.datastore import DataStore
from repro.hepnos.load_plan import LoadPlan, PendingLoad
from repro.hepnos.placement import (
    FullKeyPlacement,
    ParentHashPlacement,
    ShardMap,
)
from repro.hepnos.containers import DataSet, Run, SubRun, Event
from repro.hepnos.product import ProductID, product_type_name, vector_of
from repro.hepnos.async_engine import AsyncEngine, AsyncEngineStats
from repro.hepnos import options
from repro.hepnos.options import (
    PEPOptions,
    ProductCacheOptions,
    QuotaOptions,
)
from repro.hepnos.session import TenantSession, connect
from repro.hepnos.product_cache import ProductCache
from repro.hepnos.write_batch import WriteBatch, AsynchronousWriteBatch
from repro.hepnos.prefetcher import Prefetcher, PrefetchedEvent
from repro.hepnos.parallel_event_processor import (
    ParallelEventProcessor,
    PEPStatistics,
)
from repro.hepnos.loader import (
    DataLoader,
    discover_schema,
    generate_class_code,
    build_product_class,
)
from repro.hepnos.exporter import DatasetExporter, ExportStats
from repro.yokan.nonblocking import OperationFuture

__all__ = [
    "connect",
    "TenantSession",
    "options",
    "ConnectionInfo",
    "DbTarget",
    "connection_from_servers",
    "DataStore",
    "LoadPlan",
    "PendingLoad",
    "ColumnBlock",
    "EventBatch",
    "ParentHashPlacement",
    "FullKeyPlacement",
    "ShardMap",
    "DataSet",
    "Run",
    "SubRun",
    "Event",
    "ProductID",
    "product_type_name",
    "vector_of",
    "AsyncEngine",
    "AsyncEngineStats",
    "OperationFuture",
    "PEPOptions",
    "ProductCacheOptions",
    "QuotaOptions",
    "ProductCache",
    "WriteBatch",
    "AsynchronousWriteBatch",
    "Prefetcher",
    "PrefetchedEvent",
    "ParallelEventProcessor",
    "PEPStatistics",
    "DataLoader",
    "DatasetExporter",
    "ExportStats",
    "discover_schema",
    "generate_class_code",
    "build_product_class",
]
