"""The four workloads and the seeded inputs they run on.

A workload is one *deployment configuration* plus the size of each
phase of a round; the round itself (``harness.run_round``) is the same
for all four (only durable deployments restart), so the metrics the
driver gates on exist on every workload and a gain bought in one lane at
the cost of another shows.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Optional

from repro.nova import GeneratorConfig, generate_file_set
from repro.nova.files import iter_file_events
from repro.workflows import TraditionalWorkflow, write_file_list

#: a run repeats the round -- one fresh deployment driven through every
#: phase -- until its ``--seconds`` are used, and at least this often; a
#: once-per-round phase yields one equal-work sample per round (11 in 32 s
#: on a calm machine, 6 when the host slows everything twofold)
MIN_ROUNDS = 4
#: ``peak_rss_mb`` is the high-water mark after this many rounds
RSS_ROUNDS = 4
#: stand-up/tear-down cycles on an empty store before round 1; with the
#: per-round stand-ups they are the samples of ``setup_s``
SETUP_CYCLES = 24
#: closed-loop clients: selection ranks (``nproc`` is 2); ingest and
#: point operations run one client thread
SELECT_RANKS = 2
#: a phase that runs longer than this is a failed operation
PHASE_DEADLINE_S = 120.0
#: seed of the events-per-file partition.  Fixed, not taken from
#: ``--seed``: file sizes are part of the workload (the paper blames
#: their spread for the file-based workflow's imbalance), and a
#: per-seed draw would change the amount of work by +-10 % per run.
PARTITION_SEED = 7

DATASET = "bench/nova"
#: mix of the point phase: load / store / list one subrun's events
POINT_MIX = (("load", 0.6), ("store", 0.3), ("list", 0.1))
POINT_LABELS = ("u0", "u1", "u2", "u3")
#: the point phase is timed in blocks of this many operations
POINT_BLOCK = 250

#: the repo's default flush policy, recorded with every result
FLUSH_POLICY = {"wal_sync": False, "lsm_sync_wal": False}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    backend: str = "map"
    backend_config: dict = field(default_factory=dict)
    durable: bool = False
    tenants: Optional[dict] = None
    tenant: str = ""
    priority: str = "batch"
    #: client product cache entries (``None`` = the client default)
    product_cache_entries: Optional[int] = None
    columnar: bool = False
    files: int = 5
    events_per_file: int = 1024
    slices_per_event: float = 4.1
    signal_fraction: float = 0.05
    #: steady read passes per round
    steady_passes: int = 2
    #: single operations in the point phase of each round
    point_ops: int = 1500


WORKLOADS = {w.name: w for w in (
    Workload(
        name="select_rowwise",
        why="The paper's headline path on the in-memory backend: serial "
            "decode, yokan.packed, RPC transport and PEP dispatch do the "
            "work, the storage engine almost none.",
    ),
    Workload(
        name="select_columnar",
        why="Same deployment through the columnar lane: serial.columnar, "
            "scan_columns projection and the column caches do the work "
            "and row decode none; the first pass builds the server "
            "column tables.",
        columnar=True,
    ),
    Workload(
        name="select_durable_lsm",
        why="LSM backend under the WAL with 6x heavier events: flushes, "
            "compaction, bloom/block-cache reads (working set 2.5x the "
            "cache) and real log replay on restart; the engine idles in "
            "the other three.",
        backend="lsm",
        backend_config={"memtable_bytes": 128 * 1024,
                        "block_cache_bytes": 1024 * 1024},
        durable=True,
        files=6, events_per_file=256,
        slices_per_event=24.0, signal_fraction=0.03,
    ),
    Workload(
        name="point_mixed",
        why="One RPC per operation through the tenant broker onto a "
            "WAL-backed map: mercury round trip, wire seal/CRC + tenant "
            "envelope, admission, WAL append; working set 8x the product "
            "cache.",
        durable=True,
        tenants={"slots": 8, "interactive_reserve": 2},
        tenant="bench", priority="interactive",
        product_cache_entries=550,
        steady_passes=1,
        point_ops=3000,
    ),
)}


@dataclass
class Corpus:
    """The seeded input of one run: files plus the expected outputs."""

    paths: list
    file_list: str
    events: int
    slices: int
    #: events in each file, aligned with ``paths``
    file_events: list
    #: the file-based workflow's selection: every pass must equal it
    accepted_ids: frozenset
    #: (run, subrun, event) in file order
    triples: list
    #: triple -> tuple of its slice ids, what a verified load returns
    slice_ids: dict
    #: (run, subrun) -> sorted event numbers, what a verified list returns
    subrun_events: dict
    #: the point phase, identical in every round: (kind, triple, label)
    point_ops: list


def draw_point_ops(seed: int, triples: list, count: int) -> list:
    rng = random.Random(f"point-ops:{seed}")
    kinds = [k for k, _ in POINT_MIX]
    weights = [w for _, w in POINT_MIX]
    return [
        (rng.choices(kinds, weights)[0],
         triples[rng.randrange(len(triples))],
         POINT_LABELS[rng.randrange(len(POINT_LABELS))])
        for _ in range(count)
    ]


def build_corpus(workload: Workload, seed: int, directory: str,
                 smoke: bool = False) -> Corpus:
    """Generate the files for ``seed`` and compute the expected outputs.

    Generation is benchmark input, so it runs before any timer starts.
    """
    files = 1 if smoke else workload.files
    events_per_file = (min(workload.events_per_file, 128) if smoke
                       else workload.events_per_file)
    summary = generate_file_set(
        os.path.join(directory, "files"), num_files=files,
        mean_events_per_file=events_per_file,
        config=GeneratorConfig(seed=seed,
                               slices_per_event=workload.slices_per_event,
                               signal_fraction=workload.signal_fraction),
        seed=PARTITION_SEED,
    )
    file_list = os.path.join(directory, "files.txt")
    write_file_list(file_list, summary.paths)
    reference = TraditionalWorkflow(file_list).run(num_processes=SELECT_RANKS)
    triples, slice_ids, subrun_events = [], {}, {}
    for path in summary.paths:
        for triple, rows in iter_file_events(path):
            triples.append(triple)
            slice_ids[triple] = tuple(rows["slice_id"].tolist())
            subrun_events.setdefault(triple[:2], []).append(triple[2])
    for numbers in subrun_events.values():
        numbers.sort()
    point_ops = POINT_BLOCK if smoke else workload.point_ops
    return Corpus(
        paths=list(summary.paths), file_list=file_list,
        events=summary.total_events, slices=summary.total_slices,
        file_events=list(summary.events_per_file),
        accepted_ids=frozenset(reference.accepted_ids),
        triples=triples, slice_ids=slice_ids, subrun_events=subrun_events,
        point_ops=draw_point_ops(seed, triples, point_ops),
    )
