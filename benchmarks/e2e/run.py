#!/usr/bin/env python3
"""Run the end-to-end benchmark: one named workload, or all four.

    python3 benchmarks/e2e/run.py --workload select_rowwise --seed 7
    python3 benchmarks/e2e/run.py --workload point_mixed --trace 1

Prints every metric by name with its unit, writes the run's detail JSON
(per-sample arrays, quartiles, seed, machine, corpus, flush policy) and,
as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (the metrics
``BENCHMARK.json`` declares).  Exits non-zero
when any output was incorrect.  A run repeats the round for ``--seconds``
seconds; every timed unit of work runs between two probes of the
machine's speed and counts as the time it would have taken on the
reference machine (``harness.Machine``).  ``--trace 1`` runs four rounds,
the last under benchmark-side spans, then the layer ladder; it reports
the per-layer metrics instead and also writes the spans.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(REPO, "src"))

import harness  # noqa: E402 - needs the paths above
import ladder  # noqa: E402
import stats  # noqa: E402
from metrics import END_TO_END  # noqa: E402
from workloads import (FLUSH_POLICY, MIN_ROUNDS, RSS_ROUNDS,  # noqa: E402
                       SETUP_CYCLES, WORKLOADS, build_corpus)

SCHEMA = "hepnos-e2e/v1"
#: rounds of a traced run (enough point operations for the p99s): the
#: last one records spans
TRACE_ROUNDS = 4
#: everything the benchmark writes lives here (listed in .gitignore)
DEFAULT_OUT = os.path.join(REPO, ".bench_e2e")


def end_to_end_metrics(rec: harness.Recorder, corpus, rss_mb: list) -> dict:
    """The run's end-to-end metrics from its samples.

    Each timing is the median of its samples, which are seconds on the
    reference machine (``harness.Machine``).  A workload leaves out a
    metric that has no meaning for it (nothing restarts or is stored
    where nothing is durable).  So does a run without a single good
    sample of it (every round failed before it) or with too few for the
    percentile; such a run is already incorrect or a smoke run.
    """
    s = rec.samples
    median = statistics.median
    values = {
        "setup_s": lambda: median(s["setup_s"]),
        "ingest_events_per_s": lambda: 1.0 / median(s["ingest_s_per_event"]),
        "ingest_to_selection_s": lambda: median(s["ingest_to_selection_s"]),
        "cold_select_s": lambda: median(s["cold_select_s"]),
        "select_events_per_s":
            lambda: corpus.events / median(s["steady_select_s"]),
        "restart_s": lambda: median(s["restart_s"]),
        "stored_bytes_per_event":
            lambda: median(s["stored_bytes"]) / corpus.events,
        "ops_per_s": lambda: 1.0 / median(s["point_op_s"]),
        "load_p50_us": lambda: 1e6 * median(s["load_p50_s"]),
        "load_p99_us":
            lambda: 1e6 * stats.percentile(s["load_latency_s"], 99.0),
        "store_p50_us": lambda: 1e6 * median(s["store_p50_s"]),
        "store_p99_us":
            lambda: 1e6 * stats.percentile(s["store_latency_s"], 99.0),
        # after a fixed number of rounds: how many a run fits depends on
        # the machine's speed, and what it holds must not
        "peak_rss_mb": lambda: rss_mb[min(len(rss_mb), RSS_ROUNDS) - 1],
        "failed_op_share": lambda: rec.failed / rec.attempted,
    }
    out: dict = {}
    for name, compute in values.items():
        try:
            out[name] = {"value": compute(), "unit": END_TO_END[name][0]}
        except (KeyError, IndexError, ValueError):   # StatisticsError too
            pass
    return out


def sample_details(rec: harness.Recorder) -> dict:
    """Every sampled quantity for the detail JSON: its quartiles, and its
    values unless they are per-operation latencies (thousands); a timed
    one also has the raw seconds it took on this machine."""
    out = {}
    for name, values in rec.samples.items():
        out[name] = stats.summarize(values)
        if len(values) <= 1000:
            out[name]["values"] = values
        else:
            out[name]["highest_percentile"] = (
                stats.highest_supported_percentile(len(values)))
        if name in rec.raw:
            out[name]["raw"] = rec.raw[name]
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, out_dir: str) -> dict:
    workload = WORKLOADS[name]
    work = os.path.join(out_dir, f"work-{os.getpid()}-{name}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return _run(workload, seed, seconds, trace, smoke, out_dir, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload, seed, seconds, trace, smoke, out_dir, work) -> dict:
    started = time.monotonic()
    corpus = build_corpus(workload, seed, work, smoke=smoke)
    os.sync()    # the files are written before any timer starts
    rec = harness.Recorder()
    tracer = harness.Tracer()
    aborted = None
    layers: dict = {}
    rss_mb: list = []       # the high-water mark after every round
    measuring = time.monotonic()

    def rounds_left(done: int, longest: float) -> bool:
        """Whether to run another round: the untraced run repeats the
        round until the next one would overrun its ``--seconds``."""
        if smoke or trace:
            return done < (1 if smoke else TRACE_ROUNDS)
        return (done < MIN_ROUNDS
                or time.monotonic() + 1.1 * longest < measuring + seconds)

    try:
        cycles = 2 if smoke or trace else SETUP_CYCLES
        for i in range(cycles):
            harness.setup_cycle(workload, os.path.join(work, f"cycle{i}"), rec)
        rounds, longest = 0, 0.0
        while rounds_left(rounds, longest):
            tracer.round_id = rounds
            # the last round of a traced run records spans
            tracer.enabled = trace and rounds == TRACE_ROUNDS - 1
            t0 = time.monotonic()
            with tracer.span("round"):
                harness.run_round(workload, corpus,
                                  os.path.join(work, f"round{rounds}"),
                                  rec, tracer)
            longest = max(longest, time.monotonic() - t0)
            rounds += 1
            rss_mb.append(peak_rss_mb())
        metrics = end_to_end_metrics(rec, corpus, rss_mb)
        if trace and not rec.failed:
            tracer.round_id = rounds
            layers = ladder.finish(
                ladder.measure(workload, corpus, tracer, rec.machine, work),
                workload,
                rec, corpus, tracer, metrics)
    except harness.PhaseDeadline as exc:
        aborted = str(exc)
        metrics = end_to_end_metrics(rec, corpus, rss_mb)

    correct = rec.failed == 0 and aborted is None
    detail = {
        "schema": SCHEMA, "workload": workload.name, "why": workload.why,
        "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "cpus_used": (len(os.sched_getaffinity(0))
                      if hasattr(os, "sched_getaffinity") else None),
        "corpus": {"files": len(corpus.paths), "events": corpus.events,
                   "slices": corpus.slices,
                   "accepted_ids": len(corpus.accepted_ids),
                   "point_ops": len(corpus.point_ops)},
        "flush_policy": FLUSH_POLICY,
        "correct": correct, "attempted": rec.attempted, "failed": rec.failed,
        "failures": rec.failures, "aborted": aborted,
        "metrics": metrics, "layers": layers,
        "samples": sample_details(rec),
        "rounds": len(rss_mb), "peak_rss_mb_by_round": rss_mb,
        "machine": {"reference_kernel_s": harness.REFERENCE_KERNEL_S,
                    "kernel_s": stats.summarize(rec.machine.kernel_s),
                    "slowdown": stats.summarize(rec.machine.slowdowns)},
        "measured_s": time.monotonic() - measuring,
        "run_s": time.monotonic() - started,
    }
    tag = f"{workload.name}-seed{seed}" + ("-trace" if trace else "")
    with open(os.path.join(out_dir, f"{tag}.json"), "w") as f:
        json.dump(detail, f, indent=1)
    if trace:
        with open(os.path.join(out_dir, f"{tag}.trace.json"), "w") as f:
            json.dump({"spans": tracer.spans}, f)
    return detail


def print_table(detail: dict, block: str) -> None:
    print(f"== {detail['workload']} (seed {detail['seed']}, "
          f"{detail['corpus']['events']} events, "
          f"{detail['attempted']} operations, {detail['failed']} failed)")
    for name, metric in detail[block].items():
        print(f"  {name:<44} {metric['value']:>16.6g} {metric['unit']}")
    for failure in detail["failures"][:10]:
        print(f"  FAILED: {failure}")
    if detail["aborted"]:
        print(f"  ABORTED: {detail['aborted']}")


@contextlib.contextmanager
def one_cpu():
    """Keep every thread of the run on one CPU; restore the mask after.

    All layers share one interpreter lock, so the process uses one CPU's
    worth of time however many it may run on, and left alone the kernel
    keeps its threads together on one CPU (a run then shows 50 % idle
    and no scheduler softirqs).  But once two threads are runnable at
    the same moment -- numpy releases the lock, so ``select_columnar``
    does it -- the kernel spreads them over both CPUs, and on this
    virtual machine every hand-over of the lock then costs a cross-CPU
    wake-up: 16-19 k scheduler softirqs per run, ``ops_per_s`` halved,
    ``select_events_per_s`` down a third.  The state outlives the
    process, so the next run of *any* workload measures it too, for a
    minute or two.  Unpinned, ``select_columnar`` reads 10.2 k events/s
    and the ``select_rowwise`` run after it 3.0 k ops/s; pinned, or
    unpinned after a quiet minute, 16.2 k and 6.7 k.  Where the kernel
    already packs the threads the mask changes nothing (same medians,
    same spread, over ten alternated runs).
    """
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=32.0,
                        help="how long the run measures: it repeats the round "
                             "until the next one would overrun this")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: traced run, per-layer metrics + trace.json")
    parser.add_argument("--smoke", action="store_true",
                        help="1 round on 1 small file (a shape check)")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="directory for detail JSON, trace and work files")
    args = parser.parse_args(argv)

    os.makedirs(args.out, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    block = "layers" if args.trace else "metrics"
    # The result line carries the metrics BENCHMARK.json declares: the
    # ones every workload reports.  The table above it has them all.
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        declared = [m["name"] for m in json.load(f)[
            "per_layer" if args.trace else "end_to_end"]]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        with one_cpu():
            detail = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace), args.smoke, args.out)
        print_table(detail, block)
        result["correct"] = result["correct"] and detail["correct"]
        result["attempted"] += detail["attempted"]
        result["failed"] += detail["failed"]
        prefix = f"{name}/" if len(names) > 1 else ""
        for metric in declared:
            if metric in detail[block]:
                result["metrics"][prefix + metric] = detail[block][metric]
    sys.stdout.flush()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
