"""Tests for the in-process MPI substrate."""

import pytest

from repro.errors import MPIError
from repro.minimpi import ANY_SOURCE, ANY_TAG, MAX, SUM, Wtime, mpirun


class TestLauncher:
    def test_returns_per_rank_results(self):
        assert mpirun(lambda comm: comm.rank * 10, 4) == [0, 10, 20, 30]

    def test_size_and_rank(self):
        def body(comm):
            assert comm.size == 3
            return comm.rank

        assert mpirun(body, 3) == [0, 1, 2]

    def test_args_passed(self):
        assert mpirun(lambda comm, a, b=0: a + b + comm.rank, 2, 5, b=1) == [6, 7]

    def test_rank_failure_propagates(self):
        def body(comm):
            if comm.rank == 1:
                raise ValueError("rank 1 exploded")
            return "ok"

        with pytest.raises(MPIError, match="rank 1"):
            mpirun(body, 2)

    def test_invalid_size(self):
        with pytest.raises(MPIError):
            mpirun(lambda comm: None, 0)

    def test_wtime_monotonic(self):
        t0 = Wtime()
        assert Wtime() >= t0


class TestPointToPoint:
    def test_send_recv(self):
        def body(comm):
            if comm.rank == 0:
                comm.send({"x": 1}, dest=1, tag=7)
                return None
            return comm.recv(source=0, tag=7)

        assert mpirun(body, 2)[1] == {"x": 1}

    def test_any_source_any_tag(self):
        def body(comm):
            if comm.rank == 0:
                got = [comm.recv(source=ANY_SOURCE, tag=ANY_TAG) for _ in range(2)]
                return sorted(got)
            comm.send(comm.rank, dest=0, tag=comm.rank)
            return None

        assert mpirun(body, 3)[0] == [1, 2]

    def test_tag_matching_reorders(self):
        def body(comm):
            if comm.rank == 0:
                comm.send("first", dest=1, tag=1)
                comm.send("second", dest=1, tag=2)
                return None
            second = comm.recv(source=0, tag=2)
            first = comm.recv(source=0, tag=1)
            return (first, second)

        assert mpirun(body, 2)[1] == ("first", "second")

    def test_recv_with_status(self):
        def body(comm):
            if comm.rank == 0:
                comm.send("hi", dest=1, tag=9)
                return None
            return comm.recv_with_status(source=ANY_SOURCE, tag=ANY_TAG)

        assert mpirun(body, 2)[1] == ("hi", 0, 9)

    def test_bad_dest(self):
        def body(comm):
            comm.send(1, dest=5)

        with pytest.raises(MPIError):
            mpirun(body, 2)

    def test_negative_tag_rejected(self):
        def body(comm):
            comm.send(1, dest=0, tag=-5)

        with pytest.raises(MPIError):
            mpirun(body, 1)

    def test_recv_timeout(self):
        def body(comm):
            comm.recv(source=0, tag=1, timeout=0.05)

        with pytest.raises(MPIError, match="rank 0"):
            mpirun(body, 1)


class TestCollectives:
    def test_barrier(self):
        import threading

        counter = {"n": 0}
        lock = threading.Lock()

        def body(comm):
            with lock:
                counter["n"] += 1
            comm.barrier()
            # After the barrier every rank must have incremented.
            return counter["n"]

        assert mpirun(body, 4) == [4, 4, 4, 4]

    def test_bcast(self):
        def body(comm):
            data = {"value": 42} if comm.rank == 1 else None
            return comm.bcast(data, root=1)

        assert mpirun(body, 4) == [{"value": 42}] * 4

    def test_gather(self):
        def body(comm):
            return comm.gather(comm.rank + 1, root=2)

        results = mpirun(body, 4)
        assert results[2] == [1, 2, 3, 4]
        assert results[0] is None

    def test_reduce_sum(self):
        def body(comm):
            return comm.reduce(comm.rank + 1, op=SUM, root=0)

        assert mpirun(body, 4)[0] == 10

    def test_reduce_max(self):
        def body(comm):
            return comm.reduce(comm.rank, op=MAX, root=0)

        assert mpirun(body, 5)[0] == 4

    def test_reduce_list_concat(self):
        """The paper's workflow reduces selected slice-ID lists to rank 0."""

        def body(comm):
            return comm.reduce([comm.rank], op=SUM, root=0)

        assert mpirun(body, 3)[0] == [0, 1, 2]

    def test_allreduce(self):
        def body(comm):
            return comm.allreduce(comm.rank + 1, op=SUM)

        assert mpirun(body, 4) == [10, 10, 10, 10]

    def test_back_to_back_collectives(self):
        def body(comm):
            a = comm.allreduce(1)
            b = comm.allreduce(2)
            comm.barrier()
            c = comm.bcast(comm.rank, root=0)
            return (a, b, c)

        assert mpirun(body, 4) == [(4, 8, 0)] * 4
