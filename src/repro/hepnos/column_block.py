"""Client-side struct-of-arrays views over projected product columns.

A ``scan_columns`` fan-out returns, per event, either projected columns
(the product was stored list-of-records and the server materialized the
requested fields as numeric arrays), a raw serialized value (stored
row-wise, or a field was not a numeric column), or nothing (no such
product).  This module merges those per-event answers into one
:class:`ColumnBlock`: each requested field becomes a single numeric
array concatenated over every columnar event, with an ``offsets``
vector mapping events to row ranges -- exactly the shape a vectorized
Cut/Var evaluates in one numpy pass.

Events that could not be projected stay available row-wise (``raw``)
and are handled by the caller's per-event fallback; events with no
product occupy zero rows and simply never pass a selection.

:class:`EventBatch` pairs a block with the event descriptors it was
loaded for, sliceable like a list so batch consumers (the PEP dispatch
loop) can chunk it without reassembling arrays.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

#: per-event status inside a block
PRESENT = True       #: projected into the arrays
RAW = "raw"          #: present but only as a row-wise object list
ABSENT = False       #: no such product in the event


class ColumnBlock:
    """Struct-of-arrays over one product spec for a batch of events."""

    __slots__ = ("fields", "arrays", "offsets", "present", "raw")

    def __init__(self, fields: Sequence[str],
                 arrays: Dict[str, np.ndarray],
                 offsets: np.ndarray,
                 present: List[object],
                 raw: Dict[int, list]):
        self.fields = list(fields)
        self.arrays = arrays
        #: int64, ``len(present) + 1``; event ``i`` owns rows
        #: ``offsets[i]:offsets[i+1]`` (zero rows when raw or absent)
        self.offsets = offsets
        self.present = present
        self.raw = raw

    @classmethod
    def from_groups(cls, fields: Sequence[str], n_events: int,
                    groups: Sequence[tuple], raw: Dict[int, list]
                    ) -> "ColumnBlock":
        """Assemble from whole-scan answer groups.

        Each group is ``(event_indices, counts, {field: rows})`` -- the
        projected slots of one scan answer (or of one cached run) kept
        as whole arrays, rows ordered to match ``event_indices`` repeated
        by ``counts``.  Nothing is sliced per event: columns
        concatenate once per group and a single stable permutation
        restores event order.
        """
        fields = list(fields)
        present: List[object] = [ABSENT] * n_events
        for i in raw:
            present[i] = RAW
        if not groups:
            offsets = np.zeros(n_events + 1, dtype=np.int64)
            arrays = {f: np.empty(0, dtype=np.float64) for f in fields}
            return cls(fields, arrays, offsets, present, dict(raw))
        evt_idx = np.concatenate(
            [np.asarray(g[0], dtype=np.int64) for g in groups])
        counts = np.concatenate(
            [np.asarray(g[1], dtype=np.int64) for g in groups])
        for i in evt_idx.tolist():
            present[i] = PRESENT
        per_event = np.zeros(n_events, dtype=np.int64)
        per_event[evt_idx] = counts
        offsets = np.empty(n_events + 1, dtype=np.int64)
        offsets[0] = 0
        np.cumsum(per_event, out=offsets[1:])
        row_event = np.repeat(evt_idx, counts)
        # Rows arrive group-by-group; one stable argsort restores
        # event order (identity -- and skipped -- for the common
        # single-shard answer, whose slots already come back sorted).
        perm = None
        if row_event.size and np.any(np.diff(row_event) < 0):
            perm = np.argsort(row_event, kind="stable")
        arrays = {}
        for f in fields:
            pieces = [g[2][f] for g in groups]
            col = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
            arrays[f] = col if perm is None else col[perm]
        return cls(fields, arrays, offsets, present, dict(raw))

    # -- shape -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.present)

    @property
    def rows(self) -> int:
        return int(self.offsets[-1])

    @property
    def table(self) -> Dict[str, np.ndarray]:
        return self.arrays

    def column(self, name: str) -> np.ndarray:
        return self.arrays[name]

    # -- event-level reductions -------------------------------------------

    def event_any(self, row_mask) -> np.ndarray:
        """Per-event bool: does any of the event's rows pass ``row_mask``?

        Raw and absent events own zero rows and come out ``False``; the
        caller folds raw events in through :meth:`raw` separately.
        """
        mask = np.asarray(row_mask, dtype=bool)
        if mask.shape != (self.rows,):
            raise ValueError(
                f"row mask has shape {mask.shape}, block has {self.rows} rows"
            )
        passed = np.concatenate(
            ([0], np.cumsum(mask, dtype=np.int64)))
        return (passed[self.offsets[1:]] - passed[self.offsets[:-1]]) > 0

    def event_rows(self, index: int) -> Tuple[int, int]:
        return int(self.offsets[index]), int(self.offsets[index + 1])

    def event_columns(self, index: int) -> Dict[str, np.ndarray]:
        """Event ``index``'s rows of every field (zero-copy slices)."""
        lo, hi = self.event_rows(index)
        return {f: self.arrays[f][lo:hi] for f in self.fields}

    # -- slicing -----------------------------------------------------------

    def slice(self, lo: int, hi: int) -> "ColumnBlock":
        """Zero-copy view over events ``lo:hi`` (arrays are row slices)."""
        lo, hi, _ = slice(lo, hi).indices(len(self.present))
        row_lo = int(self.offsets[lo])
        row_hi = int(self.offsets[hi])
        offsets = self.offsets[lo:hi + 1] - row_lo
        arrays = {f: arr[row_lo:row_hi] for f, arr in self.arrays.items()}
        raw = {i - lo: objs for i, objs in self.raw.items()
               if lo <= i < hi}
        return ColumnBlock(self.fields, arrays, offsets,
                           self.present[lo:hi], raw)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ColumnBlock(events={len(self.present)}, rows={self.rows}, "
                f"fields={self.fields}, raw={len(self.raw)})")


class EventBatch:
    """A batch of event views (:class:`~repro.hepnos.PrefetchedEvent`)
    plus the column block loaded for them.

    Slicing returns an :class:`EventBatch` over the same arrays, so the
    dispatch loop can hand workers contiguous chunks without copying.
    """

    __slots__ = ("items", "block")

    def __init__(self, items: Sequence[object], block: ColumnBlock):
        if len(items) != len(block):
            raise ValueError(
                f"{len(items)} events but block covers {len(block)}")
        self.items = list(items)
        self.block = block

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[object]:
        return iter(self.items)

    def __getitem__(self, index):
        if isinstance(index, slice):
            lo, hi, step = index.indices(len(self.items))
            if step != 1:
                raise ValueError("EventBatch slices must be contiguous")
            return EventBatch(self.items[lo:hi], self.block.slice(lo, hi))
        return self.items[index]

    @property
    def table(self) -> Dict[str, np.ndarray]:
        return self.block.table

    def fallback_items(self) -> Iterator[Tuple[object, list]]:
        """``(item, row-wise objects)`` for events the server could not
        project; the caller runs its per-event path over these."""
        for i, objs in sorted(self.block.raw.items()):
            yield self.items[i], objs

    def missing_indices(self) -> List[int]:
        """Indices of events with no product at all."""
        return [i for i, status in enumerate(self.block.present)
                if status is ABSENT]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventBatch(events={len(self.items)}, block={self.block!r})"


__all__ = ["ABSENT", "ColumnBlock", "EventBatch", "PRESENT", "RAW"]
