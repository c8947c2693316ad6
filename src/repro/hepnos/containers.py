"""The container hierarchy: DataSet -> Run -> SubRun -> Event.

Navigation mirrors C++ container syntax from the paper's Listing 1:
``ds[43]`` accesses run 43, ``run.create_subrun(56)`` creates subrun
56, iteration yields children in ascending numeric order.  Runs,
subruns and events can hold products via :meth:`store` / :meth:`load`.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.errors import ContainerNotFound, HEPnOSError
from repro.hepnos import keys


class _ProductHolder:
    """Mixin for containers that hold products (run/subrun/event)."""

    __slots__ = ()  # the prefetched event view is slotted

    def store(self, obj, label: str = "", type_name=None, batch=None) -> bytes:
        """Store a product on this container; returns the product key."""
        return self.datastore.store_product(
            self.key, obj, label=label, type_name=type_name, batch=batch
        )

    def load(self, product_type, label: str = ""):
        """Load a product (raises :class:`ProductNotFound` if absent)."""
        return self.datastore.load_product(self.key, product_type, label=label)

    def has_product(self, product_type, label: str = "") -> bool:
        return self.datastore.product_exists(self.key, product_type, label=label)


class DataSet:
    """A named container of runs and other datasets."""

    def __init__(self, datastore, path: str, uuid: bytes):
        self.datastore = datastore
        self.path = path
        self.uuid = uuid

    @property
    def name(self) -> str:
        return self.path.rsplit("/", 1)[-1]

    # -- nested datasets ---------------------------------------------------

    def create_dataset(self, name: str) -> "DataSet":
        return self.datastore.create_dataset(f"{self.path}/{name}")

    def datasets(self) -> Iterator["DataSet"]:
        return self.datastore.child_datasets(self.path)

    # -- runs ---------------------------------------------------------------

    def create_run(self, number: int, batch=None) -> "Run":
        key = keys.run_key(self.uuid, number)
        self.datastore.create_container("runs", self.uuid, key, batch=batch)
        return Run(self.datastore, self, number, key)

    def __getitem__(self, number: int) -> "Run":
        key = keys.run_key(self.uuid, number)
        if not self.datastore.container_exists("runs", self.uuid, key):
            raise ContainerNotFound(f"no run {number} in dataset {self.path!r}")
        return Run(self.datastore, self, number, key)

    def __contains__(self, number: int) -> bool:
        key = keys.run_key(self.uuid, number)
        return self.datastore.container_exists("runs", self.uuid, key)

    def run(self, number: int) -> "Run":
        """A handle for run ``number`` without an existence check.

        No RPC is issued; loading from (or storing to) a run that was
        never created raises at access time.  Use ``ds[number]`` when
        validation matters.
        """
        return Run(self.datastore, self, number, keys.run_key(self.uuid, number))

    def runs(self, start_after: Optional[int] = None,
             limit: int = 0) -> Iterator["Run"]:
        """Runs in ascending order (one database's ordered iterator)."""
        cursor = b"" if start_after is None else keys.run_key(self.uuid, start_after)
        for key in self.datastore.list_child_keys(
            "runs", self.uuid, start_after=cursor, limit=limit
        ):
            yield Run(self.datastore, self, keys.child_number(key), key)

    def __iter__(self) -> Iterator["Run"]:
        return self.runs()

    # -- event-level helpers ---------------------------------------------------

    def events(self) -> Iterator["Event"]:
        """All events in the dataset, grouped by run and subrun."""
        for run in self:
            for subrun in run:
                yield from subrun

    def __eq__(self, other) -> bool:
        return isinstance(other, DataSet) and other.uuid == self.uuid

    def __hash__(self) -> int:
        return hash(self.uuid)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DataSet({self.path!r})"


class Run(_ProductHolder):
    """A numbered container of subruns."""

    def __init__(self, datastore, dataset: DataSet, number: int, key: bytes):
        self.datastore = datastore
        self.dataset = dataset
        self.number = number
        self.key = key

    def create_subrun(self, number: int, batch=None) -> "SubRun":
        key = keys.subrun_key(self.key, number)
        self.datastore.create_container("subruns", self.key, key, batch=batch)
        return SubRun(self.datastore, self, number, key)

    def __getitem__(self, number: int) -> "SubRun":
        key = keys.subrun_key(self.key, number)
        if not self.datastore.container_exists("subruns", self.key, key):
            raise ContainerNotFound(
                f"no subrun {number} in run {self.number} "
                f"of dataset {self.dataset.path!r}"
            )
        return SubRun(self.datastore, self, number, key)

    def __contains__(self, number: int) -> bool:
        key = keys.subrun_key(self.key, number)
        return self.datastore.container_exists("subruns", self.key, key)

    def subrun(self, number: int) -> "SubRun":
        """A handle for subrun ``number`` without an existence check."""
        return SubRun(self.datastore, self, number,
                      keys.subrun_key(self.key, number))

    def subruns(self, limit: int = 0) -> Iterator["SubRun"]:
        for key in self.datastore.list_child_keys("subruns", self.key,
                                                  limit=limit):
            yield SubRun(self.datastore, self, keys.child_number(key), key)

    def __iter__(self) -> Iterator["SubRun"]:
        return self.subruns()

    def __eq__(self, other) -> bool:
        return isinstance(other, Run) and other.key == self.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Run({self.number} in {self.dataset.path!r})"


class SubRun(_ProductHolder):
    """A numbered container of events."""

    def __init__(self, datastore, run: Run, number: int, key: bytes):
        self.datastore = datastore
        self.run = run
        self.number = number
        self.key = key

    def create_event(self, number: int, batch=None) -> "Event":
        key = keys.event_key(self.key, number)
        self.datastore.create_container("events", self.key, key, batch=batch)
        return Event(self.datastore, self, number, key)

    def __getitem__(self, number: int) -> "Event":
        key = keys.event_key(self.key, number)
        if not self.datastore.container_exists("events", self.key, key):
            raise ContainerNotFound(
                f"no event {number} in subrun {self.number}"
            )
        return Event(self.datastore, self, number, key)

    def __contains__(self, number: int) -> bool:
        key = keys.event_key(self.key, number)
        return self.datastore.container_exists("events", self.key, key)

    def event(self, number: int) -> "Event":
        """A handle for event ``number`` without an existence check."""
        return Event(self.datastore, self, number,
                     keys.event_key(self.key, number))

    def events(self, limit: int = 0) -> Iterator["Event"]:
        """The subrun's events in order, each number read from its
        key's last 8 bytes."""
        datastore, number = self.datastore, int.from_bytes
        for key in datastore.list_child_keys("events", self.key,
                                             limit=limit):
            if len(key) != keys.EVENT_KEY_LEN:
                raise HEPnOSError(f"not an event key: {key!r}")
            yield Event(datastore, self, number(key[-8:], "big"), key)

    def __iter__(self) -> Iterator["Event"]:
        return self.events()

    def __eq__(self, other) -> bool:
        return isinstance(other, SubRun) and other.key == self.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SubRun({self.number} in run {self.run.number})"


class Event(_ProductHolder):
    """The atomic unit of HEP data; holds products."""

    def __init__(self, datastore, subrun: SubRun, number: int, key: bytes):
        self.datastore = datastore
        self.subrun = subrun
        self.number = number
        self.key = key

    @property
    def run_number(self) -> int:
        return self.subrun.run.number

    @property
    def subrun_number(self) -> int:
        return self.subrun.number

    def triple(self) -> tuple[int, int, int]:
        """(run, subrun, event) numbers -- the HEP event identifier."""
        return (self.run_number, self.subrun_number, self.number)

    def __eq__(self, other) -> bool:
        return isinstance(other, Event) and other.key == self.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event{self.triple()}"
