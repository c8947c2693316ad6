"""The end-to-end metrics, by the names later issues cite."""

#: The end-to-end metrics: name -> (unit, better, bound).  The bound is
#: how far a later change may worsen the metric's median over at least
#: ten alternated runs before it counts as a regression, and the width
#: within which two such sets of the same code must agree.
#: ``BENCHMARK.json`` declares the ones every workload reports, with the
#: bounds the driver applies to single sets of runs (see the README);
#: ``run.py`` prints and ``compare.py`` judges all of them.
END_TO_END = {
    "setup_s": ("s", "lower", 0.10),
    "ingest_events_per_s": ("1/s", "higher", 0.10),
    "ingest_to_selection_s": ("s", "lower", 0.10),
    "cold_select_s": ("s", "lower", 0.10),
    "select_events_per_s": ("1/s", "higher", 0.10),
    "restart_s": ("s", "lower", 0.10),
    "stored_bytes_per_event": ("B", "lower", 0.05),
    "ops_per_s": ("1/s", "higher", 0.10),
    "load_p50_us": ("us", "lower", 0.10),
    "load_p99_us": ("us", "lower", 0.10),
    "store_p50_us": ("us", "lower", 0.10),
    "store_p99_us": ("us", "lower", 0.10),
    "peak_rss_mb": ("MB", "lower", 0.05),
    "failed_op_share": ("ratio", "lower", 0.0),
}
