"""Tests for the Argobots-style ULT runtime."""

import statistics
import threading
import time

import pytest

from repro.argobots import Eventual, Runtime, ULT
from repro.errors import ReproError


@pytest.fixture()
def rt():
    return Runtime()


def push(pool, func, *args):
    """Queue ``func(*args)`` as a ULT; the eventual returned holds what it
    returned, or raises what it raised."""
    ev = Eventual()

    def done(value, exc):
        if exc is not None:
            ev.set_exception(exc)
        else:
            ev.set(value)

    pool.push(ULT(func, args, done))
    return ev


def drain(rt):
    """Run the inline scheduler until every pool is empty."""
    while rt.progress_once():
        pass


def result(ev, timeout=5.0):
    assert ev.wait_blocking(timeout)
    return ev._unwrap()


@pytest.fixture()
def pool(rt):
    pool = rt.create_pool("work")
    rt.create_xstream("es", [pool])
    return pool


class TestBasicULTs:
    def test_plain_callable(self, rt, pool):
        ev = push(pool, lambda: 42)
        assert not ev.is_ready
        drain(rt)
        assert result(ev) == 42

    def test_args(self, rt, pool):
        ev = push(pool, lambda a, b: a + b, 1, 2)
        drain(rt)
        assert result(ev) == 3

    def test_exception_captured(self, rt, pool):
        def bad():
            raise ValueError("boom")

        ev = push(pool, bad)
        drain(rt)
        with pytest.raises(ValueError, match="boom"):
            result(ev)

    def test_done_callback(self, rt, pool):
        """``done`` runs once, after the function, with what it returned
        and no exception."""
        calls = []
        pool.push(ULT(lambda: calls.append("ran") or 7, (),
                      lambda value, exc: calls.append((value, exc))))
        assert calls == []
        drain(rt)
        assert calls == ["ran", (7, None)]

    def test_generator_body(self, rt, pool):
        """A ULT is a task, not a coroutine: a generator function's
        generator is its value, and nothing resumes it."""
        def gen():
            yield 1

        ev = push(pool, gen)
        assert rt.progress_once()
        assert not rt.progress_once()
        assert hasattr(result(ev), "send")


class TestScheduling:
    def test_pool_is_fifo(self, rt, pool):
        order = []
        for i in range(5):
            push(pool, order.append, i)
        drain(rt)
        assert order == list(range(5))

    def test_xstream_alternates_over_its_pools(self, rt):
        p1, p2 = rt.create_pool("p1"), rt.create_pool("p2")
        rt.create_xstream("es", [p1, p2])
        order = []
        for i in range(3):
            push(p1, order.append, ("a", i))
            push(p2, order.append, ("b", i))
        drain(rt)
        assert order == [("a", 0), ("b", 0), ("a", 1), ("b", 1),
                         ("a", 2), ("b", 2)]

    def test_multiple_xstreams_round_robin(self, rt):
        p1 = rt.create_pool("p1")
        p2 = rt.create_pool("p2")
        e1 = rt.create_xstream("e1", [p1])
        e2 = rt.create_xstream("e2", [p2])
        results = []
        push(p1, results.append, 1)
        push(p2, results.append, 2)
        drain(rt)
        assert sorted(results) == [1, 2]
        assert (e1.steps_executed, e2.steps_executed) == (1, 1)

    def test_inline_scheduler_alternates_over_xstreams(self, rt):
        # Each step resumes after the xstream that ran last: the first
        # xstream created does not run dry before the second gets a turn.
        p1, p2 = rt.create_pool("p1"), rt.create_pool("p2")
        rt.create_xstream("e1", [p1])
        rt.create_xstream("e2", [p2])
        order = []
        for _ in range(3):
            push(p1, order.append, "a")
            push(p2, order.append, "b")
        drain(rt)
        assert order == ["a", "b", "a", "b", "a", "b"]

    def test_inline_scheduler_skips_idle_xstreams(self, rt):
        p1, p2, p3 = (rt.create_pool(f"p{i}") for i in (1, 2, 3))
        for i, pool in enumerate((p1, p2, p3)):
            rt.create_xstream(f"e{i}", [pool])
        order = []
        for _ in range(2):
            push(p1, order.append, "a")
            push(p3, order.append, "c")
        drain(rt)
        assert order == ["a", "c", "a", "c"]

    def test_duplicate_names_rejected(self, rt):
        rt.create_pool("x")
        with pytest.raises(ReproError):
            rt.create_pool("x")
        pool = rt.pools["x"]
        rt.create_xstream("es", [pool])
        with pytest.raises(ReproError):
            rt.create_xstream("es", [pool])

    def test_xstream_needs_pool(self, rt):
        with pytest.raises(ValueError):
            rt.create_xstream("es", [])

    def test_idle_runtime_makes_no_progress(self, rt, pool):
        assert not rt.progress_once()


class TestEventual:
    def test_set_then_wait(self):
        ev, seen = Eventual(), []
        ev.set(10)
        assert ev.wait_blocking(0.0)
        ev.add_done_callback(lambda e: seen.append(e._unwrap()))
        assert seen == [10]

    def test_wait_then_set(self, rt, pool):
        ev, seen = Eventual(), []
        ev.add_done_callback(lambda e: seen.append(e._unwrap()))
        push(pool, ev.set, "ready")
        assert seen == []
        drain(rt)
        assert seen == ["ready"]

    def test_multiple_waiters(self, rt, pool):
        ev, seen = Eventual(), []
        for i in range(3):
            ev.add_done_callback(lambda e, i=i: seen.append((i, e._unwrap())))
        push(pool, ev.set, 99)
        drain(rt)
        assert seen == [(0, 99), (1, 99), (2, 99)]

    def test_double_set_rejected(self):
        ev = Eventual()
        ev.set(1)
        with pytest.raises(ReproError):
            ev.set(2)
        with pytest.raises(ReproError):
            ev.set_exception(ValueError("late"))

    def test_get_from_external_code(self, rt, pool):
        """What ``Fabric.wait`` does inline: drive the scheduler until
        the eventual is ready, then unwrap it."""
        ev = Eventual()
        push(pool, ev.set, "external")
        while not ev.is_ready:
            assert rt.progress_once()
        assert ev._unwrap() == "external"

    def test_exception_propagates(self, rt, pool):
        ev, seen = Eventual(), []
        ev.add_done_callback(seen.append)
        push(pool, ev.set_exception, RuntimeError("fail"))
        drain(rt)
        assert seen == [ev]
        with pytest.raises(RuntimeError, match="fail"):
            ev._unwrap()

    def test_exception_via_get(self):
        ev = Eventual()
        ev.set_exception(ValueError("nope"))
        assert ev.is_ready and ev.wait_blocking(0.0)
        with pytest.raises(ValueError, match="nope"):
            ev._unwrap()

    def test_wait_blocking_times_out_unset(self):
        ev = Eventual()
        t0 = time.perf_counter()
        assert not ev.wait_blocking(0.02)
        assert time.perf_counter() - t0 >= 0.02
        assert not ev.is_ready


class TestThreadedMode:
    def test_threaded_runtime_basic(self):
        rt = Runtime(threaded=True)
        pool = rt.create_pool("work")
        rt.create_xstream("es0", [pool])
        rt.create_xstream("es1", [pool])
        rt.start()
        try:
            assert result(push(pool, lambda: 123)) == 123
        finally:
            rt.shutdown()

    def test_threaded_many_ults(self):
        rt = Runtime(threaded=True)
        pool = rt.create_pool("work")
        for i in range(4):
            rt.create_xstream(f"es{i}", [pool])
        rt.start()
        try:
            eventuals = [push(pool, lambda i=i: i * i) for i in range(50)]
            values = [result(ev) for ev in eventuals]
            assert values == [i * i for i in range(50)]
        finally:
            rt.shutdown()

    def test_xstream_wakes_for_any_of_its_pools(self):
        """A parked xstream blocks on all its pools, not on the first
        with a poll: a ULT pushed to the second pool used to wait out
        the 10 ms poll (median 7 ms)."""
        rt = Runtime(threaded=True)
        first, second = rt.create_pool("first"), rt.create_pool("second")
        rt.create_xstream("es", [first, second])
        rt.start()
        try:
            for pool in (first, second):
                took = []
                for _ in range(20):
                    time.sleep(0.002)  # let the xstream park
                    t0 = time.perf_counter()
                    assert result(push(pool, lambda: 1)) == 1
                    took.append(time.perf_counter() - t0)
                assert statistics.median(took) < 0.002, (pool.name, took)
        finally:
            rt.shutdown()

    def test_shared_pool_and_several_pools_together(self):
        """Two xstreams share one pool and each also serves its own."""
        rt = Runtime(threaded=True)
        shared = rt.create_pool("shared")
        own = [rt.create_pool(f"own{i}") for i in range(2)]
        for i in range(2):
            rt.create_xstream(f"es{i}", [own[i], shared])
        rt.start()
        try:
            eventuals = [push((shared, own[0], own[1])[i % 3], lambda i=i: i)
                         for i in range(90)]
            assert [result(ev) for ev in eventuals] == list(range(90))
        finally:
            rt.shutdown()

    def test_shutdown_wakes_idle_xstreams(self):
        """Stop wakes every parked xstream at once (each used to sleep
        out its poll in turn: 48 ms for 7), leaves no thread behind, and
        the runtime restarts."""
        before = threading.active_count()
        rt = Runtime(threaded=True)
        pools = [rt.create_pool(f"p{i}") for i in range(8)]
        for i, pool in enumerate(pools):
            rt.create_xstream(f"es{i}", [pool])
        took = []
        for _ in range(2):
            rt.start()
            assert threading.active_count() == before + 8
            assert result(push(pools[3], lambda: "served")) == "served"
            time.sleep(0.005)  # all parked again
            t0 = time.perf_counter()
            rt.shutdown()
            took.append(time.perf_counter() - t0)
            assert threading.active_count() == before
        assert min(took) < 0.010, took

    def test_two_os_threads_wait_on_one_eventual(self):
        for fail in (False, True):
            ev, seen = Eventual(), []

            def waiter():
                assert ev.wait_blocking(5.0)
                try:
                    seen.append(ev._unwrap())
                except ValueError as exc:
                    seen.append(exc)

            threads = [threading.Thread(target=waiter) for _ in range(2)]
            for t in threads:
                t.start()
            time.sleep(0.01)
            assert not ev.wait_blocking(0.0) and seen == []
            boom = ValueError("boom")
            ev.set_exception(boom) if fail else ev.set(7)
            for t in threads:
                t.join(5.0)
            assert seen == ([boom, boom] if fail else [7, 7])
