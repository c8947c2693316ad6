#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

    python3 benchmarks/e2e/compare.py A B

``A`` and ``B`` are each a run's detail JSON or a directory of them
(``run.py --out DIR``); traced runs are skipped.  Per workload and
end-to-end metric it prints both medians, how much worse ``B`` is than
``A`` (negative: better), the metric's bound (``metrics.END_TO_END``) and
a verdict:

- ``ok``: ``B``'s median is no worse than ``A``'s by more than the bound;
- ``regressed``: it is worse by more than the bound;
- ``unresolved``: the run-to-run spread of either set (distance between
  its quartiles over its median) is wider than the bound, so the sets
  cannot tell -- unless every run of ``B`` reads better than every run
  of ``A``, which is ``ok`` at any spread.

Exits 1 when any pairing regressed, 0 otherwise.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402 - needs the path above
from metrics import END_TO_END  # noqa: E402


def load_runs(path: str) -> dict:
    """{workload: {metric: [value per run]}} of the untraced runs."""
    files = ([os.path.join(path, name) for name in sorted(os.listdir(path))
              if name.endswith(".json")]
             if os.path.isdir(path) else [path])
    runs: dict = {}
    for name in files:
        with open(name) as f:
            detail = json.load(f)
        if not isinstance(detail, dict) or detail.get("trace", True):
            continue
        per_metric = runs.setdefault(detail["workload"], {})
        for metric, entry in detail["metrics"].items():
            per_metric.setdefault(metric, []).append(entry["value"])
    return runs


def verdict(a: list, b: list, better: str, bound: float) -> tuple:
    """(relative worsening of b's median, verdict)."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    if better == "lower":
        diff, b_wins = med_b - med_a, max(b) < min(a)
    else:
        diff, b_wins = med_a - med_b, min(b) > max(a)
    # a metric that reads 0 (failed_op_share) worsens by any increase
    worse = diff / med_a if med_a else math.inf if diff > 0 else 0.0
    if b_wins:                      # every run of B beats every run of A
        return worse, "ok"
    if max(stats.spread(a), stats.spread(b)) > bound:
        return worse, "unresolved"
    return worse, "regressed" if worse > bound else "ok"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__)
        return 2
    a_runs, b_runs = load_runs(args[0]), load_runs(args[1])
    regressed = 0
    print(f"{'workload':<20}{'metric':<24}{'median A':>12}{'median B':>12}"
          f"{'worse by':>10}{'bound':>8}  verdict (runs A/B)")
    for workload in sorted(set(a_runs) & set(b_runs)):
        for metric, (_unit, better, bound) in END_TO_END.items():
            a = a_runs[workload].get(metric)
            b = b_runs[workload].get(metric)
            if not a or not b:
                continue
            worse, what = verdict(a, b, better, bound)
            regressed += what == "regressed"
            print(f"{workload:<20}{metric:<24}{statistics.median(a):>12.5g}"
                  f"{statistics.median(b):>12.5g}{100 * worse:>9.1f}%"
                  f"{100 * bound:>7.0f}%  {what} "
                  f"({len(a)}/{len(b)})")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
