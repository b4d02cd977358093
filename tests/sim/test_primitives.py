"""Tests for Store, Resource, and Signal."""

import pytest

from repro.sim import Simulator, SimulationError
from repro.sim.primitives import Resource, Signal, Store


# --- Store -------------------------------------------------------------------

def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer(sim):
        for i in range(5):
            yield store.put(i)
            yield sim.timeout(1)

    def consumer(sim):
        for _ in range(5):
            item = yield store.get()
            got.append(item)

    sim.process(producer(sim))
    sim.process(consumer(sim))
    sim.run()
    assert got == [0, 1, 2, 3, 4]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    times = []

    def consumer(sim):
        item = yield store.get()
        times.append((sim.now, item))

    def producer(sim):
        yield sim.timeout(90)
        yield store.put("x")

    sim.process(consumer(sim))
    sim.process(producer(sim))
    sim.run()
    assert times == [(90, "x")]


def test_store_capacity_blocks_put():
    sim = Simulator()
    store = Store(sim, capacity=2)
    log = []

    def producer(sim):
        for i in range(4):
            yield store.put(i)
            log.append((sim.now, "put", i))

    def consumer(sim):
        yield sim.timeout(100)
        for _ in range(4):
            item = yield store.get()
            log.append((sim.now, "got", item))
            yield sim.timeout(10)

    sim.process(producer(sim))
    sim.process(consumer(sim))
    sim.run()
    # Two puts complete immediately; the rest wait for space.
    assert log[0] == (0, "put", 0)
    assert log[1] == (0, "put", 1)
    put_times = {i: t for (t, op, i) in log if op == "put"}
    assert put_times[2] == 100   # freed by the first get
    assert put_times[3] == 110


def test_store_try_put_drops_when_full():
    sim = Simulator()
    store = Store(sim, capacity=1)
    assert store.try_put("a") is True
    assert store.try_put("b") is False
    assert len(store) == 1


def test_store_try_get_empty_returns_none():
    sim = Simulator()
    store = Store(sim)
    assert store.try_get() is None
    store.try_put("x")
    assert store.try_get() == "x"


def test_store_invalid_capacity():
    with pytest.raises(ValueError):
        Store(Simulator(), capacity=0)


def test_store_multiple_waiting_getters_fifo():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim, tag):
        item = yield store.get()
        got.append((tag, item))

    def producer(sim):
        yield sim.timeout(10)
        yield store.put("first")
        yield store.put("second")

    sim.process(consumer(sim, "c1"))
    sim.process(consumer(sim, "c2"))
    sim.process(producer(sim))
    sim.run()
    assert got == [("c1", "first"), ("c2", "second")]


def test_store_try_put_wakes_blocked_getter():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim):
        item = yield store.get()
        got.append((sim.now, item))

    def producer(sim):
        yield sim.timeout(42)
        assert store.try_put("y")

    sim.process(consumer(sim))
    sim.process(producer(sim))
    sim.run()
    assert got == [(42, "y")]


# --- Resource ----------------------------------------------------------------

def test_resource_mutual_exclusion():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []

    def user(sim, tag, hold):
        yield res.request()
        log.append((sim.now, tag, "in"))
        yield sim.timeout(hold)
        log.append((sim.now, tag, "out"))
        res.release()

    sim.process(user(sim, "a", 50))
    sim.process(user(sim, "b", 50))
    sim.run()
    assert log == [(0, "a", "in"), (50, "a", "out"), (50, "b", "in"), (100, "b", "out")]


def test_resource_capacity_two_admits_two():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    entered = []

    def user(sim, tag):
        yield res.request()
        entered.append((sim.now, tag))
        yield sim.timeout(10)
        res.release()

    for tag in "abc":
        sim.process(user(sim, tag))
    sim.run()
    assert entered == [(0, "a"), (0, "b"), (10, "c")]


def test_resource_release_idle_is_error():
    sim = Simulator()
    res = Resource(sim)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_available_accounting():
    sim = Simulator()
    res = Resource(sim, capacity=3)
    assert res.available == 3
    res.request()
    assert res.available == 2


# --- Signal ------------------------------------------------------------------

def test_signal_wakes_all_current_waiters():
    sim = Simulator()
    sig = Signal(sim)
    woken = []

    def waiter(sim, tag):
        yield sig.wait()
        woken.append((sim.now, tag))

    def firer(sim):
        yield sim.timeout(25)
        sig.fire()

    sim.process(waiter(sim, "w1"))
    sim.process(waiter(sim, "w2"))
    sim.process(firer(sim))
    sim.run()
    assert sorted(woken) == [(25, "w1"), (25, "w2")]


def test_signal_rearms_after_fire():
    sim = Simulator()
    sig = Signal(sim)
    wakes = []

    def waiter(sim):
        for _ in range(2):
            yield sig.wait()
            wakes.append(sim.now)

    def firer(sim):
        yield sim.timeout(10)
        sig.fire()
        yield sim.timeout(10)
        sig.fire()

    sim.process(waiter(sim))
    sim.process(firer(sim))
    sim.run()
    assert wakes == [10, 20]
    assert not sig.wait().triggered  # re-armed after the second fire


def test_fresh_store_queues_are_shared_and_empty():
    sim = Simulator()
    a, b = Store(sim), Store(sim, capacity=1)
    assert a.items is b.items and a._getters is b._putters  # one sentinel
    assert len(a) == 0
    assert a.try_get() is None
    assert a.get_batch() == [] and a.get_batch(limit=3) == []
    assert a.items is b.items  # non-blocking reads allocate nothing
    assert a.try_put("x") and len(a) == 1 and a.items is not b.items
    assert a.get_batch() == ["x"] and len(a) == 0


def test_first_waiter_on_fresh_store_and_resource():
    sim = Simulator()
    store, res = Store(sim), Resource(sim, capacity=1)
    got = []

    def getter(sim):
        item = yield store.get()
        got.append((sim.now, item))

    def holder(sim):
        yield res.request()
        yield sim.timeout(30)
        res.release()

    def contender(sim):
        yield res.request()
        got.append((sim.now, "acquired"))
        res.release()

    def producer(sim):
        yield sim.timeout(10)
        yield store.put("item")

    for proc in (getter, holder, contender, producer):
        sim.process(proc(sim))
    sim.run()
    assert got == [(10, "item"), (30, "acquired")]
    assert res.available == 1


def test_drained_queues_are_reused_not_reallocated():
    sim = Simulator()
    store, res = Store(sim), Resource(sim, capacity=1)
    seen = []

    def consumer(sim):
        for _ in range(3):
            seen.append((yield store.get()))

    def contender(sim):
        for _ in range(3):
            yield res.request()
            yield sim.timeout(3)
            res.release()

    def producer(sim):
        for i in range(3):
            yield sim.timeout(5)
            yield store.put(i)

    sim.process(consumer(sim))
    sim.process(contender(sim))
    sim.process(contender(sim))
    sim.process(producer(sim))
    sim.run(until=6)  # item 0 handed over, resource passed on once
    assert seen == [0]
    getters, items, waiters = store._getters, store.items, res._waiters
    assert isinstance(getters, list) and isinstance(waiters, list)
    sim.run()
    assert seen == [0, 1, 2]  # two more waits on each queue ...
    assert not getters and not items and not waiters  # ... drained ...
    assert store._getters is getters and store.items is items  # ... and kept
    assert res._waiters is waiters


def test_resource_waiters_served_fifo():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def user(sim, i):
        yield sim.timeout(i)
        yield res.request()
        order.append(i)
        yield sim.timeout(10)
        res.release()

    for i in range(4):
        sim.process(user(sim, i))
    sim.run()
    assert order == [0, 1, 2, 3]


def test_putter_blocks_on_fresh_capacity_one_store():
    sim = Simulator()
    store = Store(sim, capacity=1)
    log = []

    def producer(sim, name):
        for i in range(2):
            yield store.put(f"{name}{i}")
            log.append((sim.now, "put", f"{name}{i}"))

    def consumer(sim):
        yield sim.timeout(10)
        for _ in range(4):
            item = yield store.get()
            log.append((sim.now, "got", item))
            yield sim.timeout(10)

    sim.process(producer(sim, "a"))
    sim.process(producer(sim, "b"))
    sim.process(consumer(sim))
    sim.run()
    # Blocked putters are admitted in arrival order as space frees up.
    assert log == [
        (0, "put", "a0"), (10, "got", "a0"), (10, "put", "b0"),
        (20, "got", "b0"), (20, "put", "a1"), (30, "got", "a1"),
        (30, "put", "b1"), (40, "got", "b1"),
    ]


def test_idle_stores_and_resources_allocate_no_queues():
    import sys
    import tracemalloc
    from collections import deque

    sim = Simulator()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        objs = [Store(sim) for _ in range(10_000)] + [Resource(sim) for _ in range(10_000)]
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(objs) == 20_000
    # Well under a third of one empty deque per object (760 B each on
    # CPython 3.11): idle queues must not be allocated at all.
    assert used < 20_000 * sys.getsizeof(deque()) / 3


def test_store_and_signal_are_slotted():
    """A cluster-scale testbed holds thousands of stores and signals;
    neither carries a per-instance ``__dict__``."""
    sim = Simulator()
    for obj in (Store(sim), Signal(sim)):
        assert not hasattr(obj, "__dict__")
