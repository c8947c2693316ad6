"""Model study: A-ingest ablation, DataLoader (HDF2HEPnOS) ingest scaling.

Ingest is the only HEPnOS workflow step whose parallelism is bounded by
the file count (paper section III-B).  Measured ingest rates on the
real stack are ``ingest_events_per_s`` and ``loader.ingest_us_per_event``
in ``benchmarks/e2e``; this file keeps the simulator half.
"""


class TestIngestScalingSim:
    """Simulator: ingest scales with nodes only until the file count
    (and the largest file) binds -- paper section III-B's claim."""

    def test_ingest_file_bound(self, benchmark):
        from repro.perf import IngestModel, LARGE

        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        model = IngestModel()
        dataset = LARGE.scaled(1 / 4)  # the 1929-file base sample
        t8 = model.simulate(8, dataset).throughput
        t32 = model.simulate(32, dataset).throughput
        t128 = model.simulate(128, dataset).throughput
        print(f"\ningest events/s: 8 nodes {t8:,.0f}, 32 nodes {t32:,.0f}, "
              f"128 nodes {t128:,.0f}")
        assert t32 > 2 * t8          # scales while files are plentiful
        assert t128 < 1.1 * t32      # file-bound past that

    def test_lsm_ingest_slower_than_mem(self, benchmark):
        from repro.perf import IngestModel, LARGE

        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        model = IngestModel()
        dataset = LARGE.scaled(1 / 8)
        mem = model.simulate(16, dataset, backend="map").wall_seconds
        lsm = model.simulate(16, dataset, backend="lsm").wall_seconds
        print(f"\ningest wall: mem {mem:.1f}s vs lsm {lsm:.1f}s")
        assert lsm >= mem
