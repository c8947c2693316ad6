"""The product read path: a load plan, two lanes, one sharded executor.

A reader states *what* it wants -- a page of container keys, the
product specs, optionally a column projection -- as a
:class:`LoadPlan`; how that is cut into few, large, per-database
requests (paper section II-D) is decided here, once.  The plan's *lane*
supplies only what differs between the two wire verbs:

========  =========================  ===================================
lane      one request per shard      ``result``
========  =========================  ===================================
exact     ``get_multi``              ``{spec: [object or None, ...]}``
columns   ``scan_columns``           a :class:`ColumnBlock`
========  =========================  ===================================

An object load reads exactly the product keys it names, every spec of
the page in one request per database: no product it did not name
travels.

Everything else lives in :class:`PendingLoad`, the executor (the
datastore's read half in its own file: it uses the datastore's handle
table, cache and retry loop directly).  A blocking load is issue + wait
on it, so every lane pipelines and none has its own shard logic.

A retired load is its lane: ``result`` as in the table, ``block`` (the
:class:`ColumnBlock`, columns lane only), and the per-event walk
``event_product(i, spec)`` / ``event_columns(i)`` that the reader's
event view (:class:`~repro.hepnos.PrefetchedEvent`) asks on demand.
The exact lane keeps stored values as they arrived and decodes a
product only when a consumer loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import HEPnOSError, ShardMapStale
from repro.hepnos import keys as hkeys
from repro.hepnos.column_block import PRESENT, RAW, ColumnBlock
from repro.hepnos.product import product_type_name
from repro.monitor import tracing as _tracing
from repro.serial import columnar as _columnar
from repro.serial import loads

#: what ``event_product`` answers for a product the load did not fetch
#: for that event (the event view then asks the datastore)
NOT_LOADED = object()


@dataclass(frozen=True)
class LoadPlan:
    """A declarative multi-container product read.

    ``specs`` are ``(product type or type name, label)`` pairs.  With
    ``columns`` the single spec is projected server-side to those
    fields; without, exactly the named product keys are fetched.
    """

    container_keys: Sequence[bytes]
    specs: Sequence[Tuple[object, str]]
    columns: Optional[Sequence[str]] = None

    @property
    def lane(self) -> str:
        return "exact" if self.columns is None else "columns"


class _ExactLane:
    """Exactly the still-missing product keys: one ``get_multi`` per shard.

    A slot holds the product's stored value as it arrived -- a cache
    entry, or a zero-copy view of the landing buffer -- and is decoded
    only when asked for: :meth:`event_product` decodes one product for
    the consumer that loads it (who then owns the object; a reader's
    consumer may load a few of a page's events, or none), and
    ``result`` decodes them all.  A database answers in request order,
    so a request's token is the list of ``(values, index)`` slots it
    asked, and its answer fills them by position.
    """

    name = "exact"
    block = None

    def __init__(self, plan: LoadPlan):
        self.keys = list(plan.container_keys)
        #: per spec: every container's stored value, ``None`` if absent
        self.stored = {
            (product_type_name(ptype), label): [None] * len(self.keys)
            for ptype, label in plan.specs
        }
        #: per spec: (product key suffix, the spec's aligned value list)
        self.slots = [(hkeys.product_key(b"", label, tname), values)
                      for (tname, label), values in self.stored.items()]

    @property
    def result(self) -> dict:
        """``{spec: [object or None, ...]}`` aligned with the keys."""
        return {spec: [None if value is None else loads(value)
                       for value in values]
                for spec, values in self.stored.items()}

    def probe(self, cache) -> int:
        # Scan resistance: batch loads stream each event once, so
        # inserting here would evict genuinely hot products.  Batch
        # loads read the product cache but never populate it.
        keys, n = self.keys, len(self.keys)
        found = cache.get_many([ckey + suffix for suffix, _ in self.slots
                                for ckey in keys])
        for k, (_, values) in enumerate(self.slots):
            values[:] = found[k * n:(k + 1) * n]  # the probe comes first
        return len(found) - found.count(None)

    def unanswered(self) -> list[int]:
        if len(self.slots) == 1:
            return [i for i, value in enumerate(self.slots[0][1])
                    if value is None]
        lists = list(self.stored.values())
        return [i for i in range(len(self.keys))
                if any(values[i] is None for values in lists)]

    def request(self, handle, indices, size_hint: int, dispatch: bool):
        keys = self.keys
        asked = [(suffix, values, i) for i in indices
                 for suffix, values in self.slots if values[i] is None]
        return ([(values, i) for _, values, i in asked],
                handle.get_multi_nb([keys[i] + suffix
                                     for suffix, _, i in asked],
                                    size_hint=size_hint, dispatch=dispatch))

    def absorb(self, asked, answer) -> int:
        nbytes = 0
        for (values, i), value in zip(asked, answer):
            if value is not None:
                # Wire footprint of the value: the size hint presizes
                # whole landing buffers.
                nbytes += len(value) + 2
                if values[i] is None:  # else a dual-read partner
                    values[i] = value  # answered first
        return nbytes

    def finish(self, cache) -> None:
        pass

    def event_product(self, i: int, spec: tuple):
        values = self.stored.get(spec)
        if values is None:
            return NOT_LOADED
        value = values[i]
        return None if value is None else loads(value)

    def event_columns(self, i: int) -> None:
        return None


class _ColumnsLane:
    """Server-side projection: one ``scan_columns`` per shard.

    Projected answers are kept whole: per scan, the unanswered slots
    become one group ``(event_indices, counts, columns)`` -- sliced out
    with a single fancy index per field only when a dual-read partner
    already answered some slot -- and cached whole, as one run; a cache
    probe returns one group per stretch of a cached run.  Events whose
    product could not be projected (no plan, or a non-numeric field)
    come back raw; absent products occupy zero rows.
    """

    name = "columns"

    def __init__(self, plan: LoadPlan):
        self.keys = list(plan.container_keys)
        self.fields = [str(f) for f in plan.columns]
        if not self.fields:
            raise HEPnOSError("columnar load needs at least one field")
        (ptype, label), = plan.specs
        self.spec = (product_type_name(ptype), label)
        self.suffix = suffix = hkeys.product_key(b"", label, self.spec[0])
        self.pkeys = [ckey + suffix for ckey in self.keys]
        self.answered = [False] * len(self.keys)
        self.groups: list = []
        self.raw: dict[int, list] = {}
        #: the groups projected off the wire (not the cache) by this load
        self.fresh: list = []
        self.result = self.block = None

    def probe(self, cache) -> int:
        # One lookup for the page: a group per stretch of a cached
        # answer, not one per event.
        groups = cache.lookup_columns(self.pkeys, self.fields)
        answered = self.answered
        for indices, _counts, _columns in groups:
            for i in indices.tolist():
                answered[i] = True
        self.groups += groups
        return sum(len(indices) for indices, _, _ in groups)

    def unanswered(self) -> list[int]:
        return [i for i, done in enumerate(self.answered) if not done]

    def request(self, handle, indices, size_hint: int, dispatch: bool):
        return indices, handle.scan_columns_nb(
            [self.keys[i] for i in indices], self.suffix, self.fields,
            size_hint=size_hint, dispatch=dispatch)

    def absorb(self, indices, answer) -> int:
        statuses, blocks = answer
        answered = self.answered
        total_rows = sum(s for s in statuses if isinstance(s, int))
        nbytes = sum(len(payload) for _, payload in blocks)
        taken_i: list[int] = []
        taken_counts: list[int] = []
        spans: list[tuple[int, int]] = []
        pos = 0
        for i, status in zip(indices, statuses):
            if status is None:
                # Absent from this shard; a dual-read partner may
                # still answer, so leave the slot undecided.
                continue
            if isinstance(status, int):
                if not answered[i]:
                    taken_i.append(i)
                    taken_counts.append(status)
                    spans.append((pos, pos + status))
                pos += status
            else:
                nbytes += len(status)
                if not answered[i]:
                    self.raw[i] = loads(status)
            answered[i] = True
        if taken_i:
            cols = [_columnar.column_from_block(dtype, payload, total_rows)
                    for dtype, payload in blocks]
            if sum(taken_counts) != total_rows:
                sel = np.concatenate([np.arange(lo, hi) for lo, hi in spans])
                cols = [col[sel] for col in cols]
            group = (taken_i, taken_counts, dict(zip(self.fields, cols)))
            self.groups.append(group)
            self.fresh.append(group)
        return nbytes

    def finish(self, cache) -> None:
        self.result = self.block = ColumnBlock.from_groups(
            self.fields, len(self.keys), self.groups, self.raw)
        if cache is not None and self.fresh:
            # Columns are small (that is the point of projection), so
            # unlike whole objects they are worth caching: repeated
            # analysis passes skip the wire entirely.
            pkeys = self.pkeys
            cache.put_columns([([pkeys[i] for i in indices], counts, columns)
                               for indices, counts, columns in self.fresh])

    def event_product(self, i: int, spec: tuple):
        status = self.block.present[i]
        if status is PRESENT or spec != self.spec:
            return NOT_LOADED  # a present event's data is its block rows
        return self.block.raw[i] if status is RAW else None

    def event_columns(self, i: int) -> Optional[dict]:
        if self.block.present[i] is PRESENT:
            return self.block.event_columns(i)
        return None


_LANES = {lane.name: lane for lane in (_ExactLane, _ColumnsLane)}


class PendingLoad:
    """One plan in flight: issued at construction, retired by :meth:`wait`.

    Owns what every lane needs alike: cache probe, grouping by current
    (and, mid-migration, previous) shard, non-blocking issue (through
    the :class:`~repro.hepnos.AsyncEngine` window when one is attached),
    first-non-absent-wins merge, copy-before-erase re-scan, epoch-swap
    check, stale-map and failover retry, per-lane size hint.  The
    ``hepnos.load_products`` span covers the issue -- and, when
    ``blocking``, the wait as well (only then does it know ``bytes``).
    """

    def __init__(self, store, plan: LoadPlan, blocking: bool = False):
        self.store = store
        self.lane = _LANES[plan.lane](plan)
        self.nbytes = 0
        self.futures: list = []
        with _tracing.span("hepnos.load_products", lane=plan.lane,
                           containers=len(self.lane.keys),
                           specs=len(plan.specs)) as span:
            if store._product_cache is not None:
                span.set_tag("cache_hits",
                             self.lane.probe(store._product_cache))
            #: containers that needed the wire (the size hint's denominator)
            self.fetched = self._issue(span)
            if blocking:
                self.wait(span)

    def _issue(self, span) -> int:
        """Ask for everything still unanswered, under the current map."""
        smap = self.store.placement
        todo = self.lane.unanswered()
        self._round = smap, self._fan_out(smap, todo, smap.migrating, span)
        return len(todo)

    def _fan_out(self, smap, indices, dual: bool,
                 span=_tracing.NULL_SPAN) -> list:
        """Group ``indices`` by shard and issue one request per database.

        Every request is non-blocking, so the shards serve them
        *concurrently* -- this is where multi-provider read scaling
        comes from.  With ``dual`` the pre-migration shards are asked
        too (dual-read); duplicate answers are harmless because
        products are immutable and the first non-absent one wins.
        """
        store, lane = self.store, self.lane
        ckeys = lane.keys
        by_target: dict = {}
        asked = [ckeys[i] for i in indices]
        for i, target in zip(indices,
                             smap.strategy.product_database_for_many(asked)):
            by_target.setdefault(target, []).append(i)
        if dual:
            current = len(by_target)
            for i, prev in zip(indices,
                               smap.previous_product_database_for_many(asked)):
                if prev is not None:
                    by_target.setdefault(prev, []).append(i)
            span.set_tag("fallback_databases", len(by_target) - current)
        span.set_tag("databases", len(by_target))
        span.set_tag("epoch", smap.epoch)
        engine = store.async_engine
        ema = store._load_bytes_ema.get(lane.name, 0.0)
        issued = []
        for target, group in by_target.items():
            # Tight slack: an object lane's answers are views that pin
            # the whole landing buffer for the page's life.
            hint = int(ema * len(group) * 1.1) + 1024 if ema else 0
            token, future = lane.request(store._handle(target), group, hint,
                                         dispatch=engine is None)
            if engine is not None:
                engine.submit(future)
            self.futures.append(future)
            issued.append((token, future))
        return issued

    def _absorb(self, issued) -> None:
        for token, future in issued:
            self.nbytes += self.lane.absorb(token, future.wait())

    def wait(self, span=_tracing.NULL_SPAN):
        """Retire the load; returns the lane holding the answer.

        Runs under the datastore's shard retry: an epoch swap, or a
        dead primary that has a backup, re-issues what is still
        unanswered.  So does calling ``wait`` again after it raised.
        """
        store, lane = self.store, self.lane

        def attempt():
            if self._round is None:
                self._issue(span)
            (smap, issued), self._round = self._round, None
            self._absorb(issued)
            if smap.migrating:
                # The per-shard requests run concurrently, so a
                # migration step can move a product after its current
                # shard answered but before its old shard did
                # (copy-before-erase leaves it visible to neither).
                # It is on the current shard by now: ask again there
                # before treating the slot as genuinely absent.
                retry = lane.unanswered()
                if retry:
                    self._absorb(self._fan_out(smap, retry, False))
            if store.placement is not smap and lane.unanswered():
                raise ShardMapStale(
                    f"shard map advanced to epoch {store.placement.epoch} "
                    f"during a {lane.name} product load"
                )

        store._with_shard_retry(attempt)
        if self.fetched:
            per_container = self.nbytes / self.fetched
            ema = store._load_bytes_ema.get(lane.name, 0.0)
            store._load_bytes_ema[lane.name] = (
                0.7 * ema + 0.3 * per_container if ema else per_container)
            span.set_tag("bytes", self.nbytes)
        lane.finish(store._product_cache)
        return lane

    def overlap_seconds(self, until: float) -> float:
        """Total in-flight-before-``until`` time across the requests."""
        return sum(f.overlap_seconds(until) for f in self.futures)
