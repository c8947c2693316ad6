"""Tests for the Argobots-style ULT runtime."""

import statistics
import threading
import time

import pytest

from repro.argobots import (
    Barrier,
    Eventual,
    Mutex,
    Pool,
    Runtime,
    ULT,
    current_ult,
    ult_yield,
    unwrap_wait_result,
)
from repro.errors import ReproError


@pytest.fixture()
def rt():
    return Runtime()


class TestBasicULTs:
    def test_plain_callable(self, rt):
        ult = rt.spawn(lambda: 42)
        assert rt.join(ult) == 42

    def test_generator_body(self, rt):
        def body():
            yield ult_yield()
            return "done"

        assert rt.join(rt.spawn(body)) == "done"

    def test_args_kwargs(self, rt):
        ult = rt.spawn(lambda a, b=0: a + b, 1, b=2)
        assert rt.join(ult) == 3

    def test_exception_captured(self, rt):
        def bad():
            raise ValueError("boom")

        ult = rt.spawn(bad)
        rt.run_until_idle()
        assert ult.done
        assert isinstance(ult.exception, ValueError)
        with pytest.raises(ValueError):
            ult.result()

    def test_result_before_done(self, rt):
        ult = ULT(lambda: 1)
        with pytest.raises(ReproError):
            ult.result()

    def test_current_ult_visible(self, rt):
        seen = []

        def body():
            seen.append(current_ult())
            return None

        ult = rt.spawn(body)
        rt.run_until_idle()
        assert seen == [ult]
        assert current_ult() is None

    def test_done_callback(self, rt):
        fired = []
        ult = rt.spawn(lambda: 7)
        ult.add_done_callback(lambda u: fired.append(u.result()))
        rt.run_until_idle()
        assert fired == [7]
        # Adding after completion fires immediately.
        ult.add_done_callback(lambda u: fired.append("late"))
        assert fired == [7, "late"]


class TestScheduling:
    def test_yield_interleaves(self, rt):
        log = []

        def body(tag):
            for i in range(3):
                log.append((tag, i))
                yield ult_yield()

        rt.spawn(body, "a")
        rt.spawn(body, "b")
        rt.run_until_idle()
        assert log == [
            ("a", 0), ("b", 0), ("a", 1), ("b", 1), ("a", 2), ("b", 2),
        ]

    def test_priority_pool(self, rt):
        pool = rt.create_pool("prio", kind="prio")
        rt.create_xstream("prio-es", [pool])
        order = []
        rt.spawn(lambda: order.append("low"), pool=pool, priority=10)
        rt.spawn(lambda: order.append("high"), pool=pool, priority=1)
        rt.run_until_idle()
        assert order == ["high", "low"]

    def test_bad_pool_kind(self):
        with pytest.raises(ValueError):
            Pool("p", kind="wat")

    def test_multiple_xstreams_round_robin(self, rt):
        p1 = rt.create_pool("p1")
        p2 = rt.create_pool("p2")
        rt.create_xstream("e1", [p1])
        rt.create_xstream("e2", [p2])
        results = []
        rt.spawn(lambda: results.append(1), pool=p1)
        rt.spawn(lambda: results.append(2), pool=p2)
        rt.run_until_idle()
        assert sorted(results) == [1, 2]

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

    def test_run_until_deadlock_detected(self, rt):
        ev = Eventual()

        def waiter():
            yield ev.wait()

        rt.spawn(waiter)
        with pytest.raises(ReproError, match="idle"):
            rt.run_until(lambda: False)

    def test_yielding_garbage_raises(self, rt):
        def body():
            yield "not a directive"

        ult = rt.spawn(body)
        rt.run_until_idle()
        with pytest.raises(ReproError):
            ult.result()


class TestEventual:
    def test_set_then_wait(self, rt):
        ev = Eventual()
        ev.set(10)

        def body():
            value = yield ev.wait()
            return value

        assert rt.join(rt.spawn(body)) == 10

    def test_wait_then_set(self, rt):
        ev = Eventual()
        results = []

        def waiter():
            value = yield ev.wait()
            results.append(value)

        def setter():
            ev.set("ready")

        rt.spawn(waiter)
        rt.spawn(setter)
        rt.run_until_idle()
        assert results == ["ready"]

    def test_multiple_waiters(self, rt):
        ev = Eventual()
        results = []

        def waiter(tag):
            value = yield ev.wait()
            results.append((tag, value))

        for i in range(3):
            rt.spawn(waiter, i)
        rt.spawn(lambda: ev.set(99))
        rt.run_until_idle()
        assert sorted(results) == [(0, 99), (1, 99), (2, 99)]

    def test_double_set_rejected(self):
        ev = Eventual()
        ev.set(1)
        with pytest.raises(ReproError):
            ev.set(2)

    def test_get_from_external_code(self, rt):
        ev = Eventual()
        rt.spawn(lambda: ev.set("external"))
        assert ev.get(rt) == "external"

    def test_exception_propagates(self, rt):
        ev = Eventual()

        def waiter():
            value = unwrap_wait_result((yield ev.wait()))
            return value

        ult = rt.spawn(waiter)
        rt.spawn(lambda: ev.set_exception(RuntimeError("fail")))
        rt.run_until_idle()
        with pytest.raises(RuntimeError, match="fail"):
            ult.result()

    def test_exception_via_get(self, rt):
        ev = Eventual()
        ev.set_exception(ValueError("nope"))
        with pytest.raises(ValueError):
            ev.get(rt)


class TestMutex:
    def test_mutual_exclusion(self, rt):
        mutex = Mutex()
        active = []
        max_active = []

        def body():
            yield mutex.lock()
            active.append(1)
            max_active.append(len(active))
            yield ult_yield()  # try to let others in while holding the lock
            active.pop()
            mutex.unlock()

        for _ in range(5):
            rt.spawn(body)
        rt.run_until_idle()
        assert max(max_active) == 1

    def test_try_lock(self):
        mutex = Mutex()
        assert mutex.try_lock()
        assert not mutex.try_lock()
        mutex.unlock()
        assert mutex.try_lock()

    def test_unlock_unlocked_raises(self):
        with pytest.raises(ReproError):
            Mutex().unlock()

    def test_fifo_handoff(self, rt):
        mutex = Mutex()
        order = []

        def body(tag):
            yield mutex.lock()
            order.append(tag)
            yield ult_yield()
            mutex.unlock()

        for i in range(4):
            rt.spawn(body, i)
        rt.run_until_idle()
        assert order == [0, 1, 2, 3]


class TestBarrier:
    def test_barrier_releases_together(self, rt):
        barrier = Barrier(3)
        phases = []

        def body(tag):
            phases.append(("before", tag))
            yield barrier.wait()
            phases.append(("after", tag))

        for i in range(3):
            rt.spawn(body, i)
        rt.run_until_idle()
        befores = [p for p in phases if p[0] == "before"]
        afters = [p for p in phases if p[0] == "after"]
        assert len(befores) == 3 and len(afters) == 3
        assert phases.index(afters[0]) > phases.index(befores[-1])

    def test_barrier_reusable(self, rt):
        barrier = Barrier(2)
        log = []

        def body(tag):
            for round_no in range(3):
                gen = yield barrier.wait()
                log.append((round_no, tag, gen))

        rt.spawn(body, "a")
        rt.spawn(body, "b")
        rt.run_until_idle()
        assert len(log) == 6
        for round_no, _tag, gen in log:
            assert gen == round_no

    def test_invalid_parties(self):
        with pytest.raises(ValueError):
            Barrier(0)


class TestThreadedMode:
    def test_threaded_runtime_basic(self):
        rt = Runtime(threaded=True)
        pool = rt.create_pool("work")
        rt.create_xstream("es0", [pool])
        rt.create_xstream("es1", [pool])
        rt.start()
        try:
            ev = Eventual()
            rt.spawn(lambda: ev.set(123), pool=pool)
            assert ev.get(rt) == 123
        finally:
            rt.shutdown()

    def test_threaded_many_ults(self):
        rt = Runtime(threaded=True)
        pool = rt.create_pool("work")
        for i in range(4):
            rt.create_xstream(f"es{i}", [pool])
        rt.start()
        try:
            eventuals = [Eventual() for _ in range(50)]
            for i, ev in enumerate(eventuals):
                rt.spawn(lambda ev=ev, i=i: ev.set(i * i), pool=pool)
            values = [ev.get(rt) for ev in eventuals]
            assert values == [i * i for i in range(50)]
        finally:
            rt.shutdown()

    def test_xstream_wakes_for_any_of_its_pools(self):
        """A parked xstream blocks on all its pools, not on the first
        with a poll: a ULT pushed to the second pool used to wait out
        the 10 ms poll (median 7 ms)."""
        rt = Runtime(threaded=True)
        first, second = rt.create_pool("first"), rt.create_pool("second", "prio")
        rt.create_xstream("es", [first, second])
        rt.start()
        try:
            for pool in (first, second):
                took = []
                for _ in range(20):
                    time.sleep(0.002)  # let the xstream park
                    ev = Eventual()
                    t0 = time.perf_counter()
                    rt.spawn(lambda ev=ev: ev.set(1), pool=pool)
                    assert ev.get(rt) == 1
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
            eventuals = []
            for i in range(90):
                ev = Eventual()
                eventuals.append(ev)
                rt.spawn(lambda ev=ev, i=i: ev.set(i),
                         pool=(shared, own[0], own[1])[i % 3])
            assert [ev.get(rt) for ev in eventuals] == list(range(90))
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
            ev = Eventual()
            rt.spawn(lambda ev=ev: ev.set("served"), pool=pools[3])
            assert ev.get(rt) == "served"
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


class TestUltJoin:
    def test_join_finished_ult(self, rt):
        from repro.argobots import ult_join

        child = rt.spawn(lambda: 99)
        rt.run_until_idle()

        def parent():
            value = yield ult_join(child)
            return value

        assert rt.join(rt.spawn(parent)) == 99

    def test_join_pending_ult(self, rt):
        from repro.argobots import ult_join

        def slow():
            for _ in range(3):
                yield ult_yield()
            return "slow-done"

        child = rt.spawn(slow)

        def parent():
            value = yield ult_join(child)
            return f"got {value}"

        assert rt.join(rt.spawn(parent)) == "got slow-done"

    def test_join_propagates_exception(self, rt):
        from repro.argobots import ult_join

        def bad():
            raise KeyError("child failed")

        child = rt.spawn(bad)

        def parent():
            value = unwrap_wait_result((yield ult_join(child)))
            return value

        parent_ult = rt.spawn(parent)
        rt.run_until_idle()
        with pytest.raises(KeyError):
            parent_ult.result()

    def test_fan_out_fan_in(self, rt):
        from repro.argobots import ult_join

        def worker(n):
            yield ult_yield()
            return n * n

        def coordinator():
            children = [rt.spawn(worker, i) for i in range(5)]
            total = 0
            for child in children:
                total += yield ult_join(child)
            return total

        assert rt.join(rt.spawn(coordinator)) == 30
