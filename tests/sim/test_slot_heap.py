"""Equivalence of the slot-array event queue with the classic tuple heap.

The kernel replaced its ``(time, eid, event)`` tuple heap with a slot
array (dict of timestamp -> event list, plus an int heap of distinct
timestamps) and batched event application.  These property tests drive
randomly generated schedule programs through the real :class:`Simulator`
and through a small reference kernel in this file that implements the
old tuple-heap semantics literally, and assert the two fire the same
labels at the same times in the same order.
"""

from __future__ import annotations

import heapq

from hypothesis import given, settings, strategies as st

from repro.sim import Resource, Simulator, Store

# A schedule program is a list of root timers; each timer carries a delay
# and a list of child timers to schedule when it fires (children with
# delay 0 exercise the immediate queue, including chains of them).
_leaf = st.tuples(st.integers(min_value=0, max_value=40), st.just(()))
_node = st.recursive(
    _leaf,
    lambda inner: st.tuples(
        st.integers(min_value=0, max_value=40),
        st.lists(inner, max_size=3).map(tuple),
    ),
    max_leaves=25,
)
_programs = st.lists(_node, min_size=1, max_size=12)


class _ReferenceKernel:
    """The pre-slot-array scheduler: one ``(time, eid, entry)`` tuple heap.

    Zero-delay entries go to an immediate FIFO only when the heap is
    empty or its head is strictly in the future; otherwise they join the
    heap at ``(now, next_eid)`` — exactly the old ``Simulator._schedule``.
    """

    def __init__(self) -> None:
        self.now = 0
        self._heap: list[tuple[int, int, object]] = []
        self._immediate: list = []
        self._eid = 0

    def schedule(self, entry, delay: int) -> None:
        if delay:
            self._eid += 1
            heapq.heappush(self._heap, (self.now + delay, self._eid, entry))
            return
        heap = self._heap
        if heap and heap[0][0] <= self.now:
            self._eid += 1
            heapq.heappush(heap, (self.now, self._eid, entry))
        else:
            self._immediate.append(entry)

    def run(self, on_fire) -> None:
        while self._immediate or self._heap:
            if self._immediate:
                entry = self._immediate.pop(0)
            else:
                when, _, entry = heapq.heappop(self._heap)
                self.now = when
            on_fire(self, entry)


def _reference_trace(program) -> list[tuple[int, int]]:
    """Fire sequence [(time, label), ...] under the old tuple-heap kernel."""
    kernel = _ReferenceKernel()
    trace: list[tuple[int, int]] = []
    counter = [0]

    def on_fire(k: _ReferenceKernel, entry) -> None:
        label, children = entry
        trace.append((k.now, label))
        for child in children:
            delay, grandchildren = child
            counter[0] += 1
            k.schedule((counter[0], grandchildren), delay)

    for root in program:
        delay, children = root
        counter[0] += 1
        kernel.schedule((counter[0], children), delay)
    kernel.run(on_fire)
    return trace


def _simulator_trace(program) -> list[tuple[int, int]]:
    """Same fire sequence under the real slot-array Simulator.

    Each timer is a pooled ``sim.timeout`` whose completion is observed
    through a callback — the same mechanism every kernel client uses —
    so the trace reflects genuine scheduling order.
    """
    sim = Simulator()
    trace: list[tuple[int, int]] = []
    counter = [0]

    def make_cb(label: int, children):
        def cb(_evt) -> None:
            trace.append((sim.now, label))
            for child in children:
                delay, grandchildren = child
                counter[0] += 1
                evt = sim.timeout(delay)
                evt.callbacks.append(make_cb(counter[0], grandchildren))

        return cb

    for root in program:
        delay, children = root
        counter[0] += 1
        evt = sim.timeout(delay)
        evt.callbacks.append(make_cb(counter[0], children))
    sim.run()
    return trace


@settings(max_examples=120, deadline=None)
@given(program=_programs)
def test_slot_array_matches_tuple_heap(program):
    """Random schedule programs fire identically under both kernels."""
    assert _simulator_trace(program) == _reference_trace(program)


@settings(max_examples=60, deadline=None)
@given(
    delays=st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=40)
)
def test_many_events_per_slot_fifo(delays):
    """Events landing on one timestamp fire in scheduling order."""
    sim = Simulator()
    fired: list[int] = []
    for i, d in enumerate(delays):
        evt = sim.timeout(d)
        evt.callbacks.append(lambda _e, i=i: fired.append(i))
    sim.run()
    by_time = sorted(range(len(delays)), key=lambda i: (delays[i], i))
    assert fired == by_time


def test_step_matches_run_batching():
    """step() applies batched slots one event at a time, same order as run()."""

    def build():
        sim = Simulator()
        fired: list[tuple[int, int]] = []
        for i, d in enumerate([5, 5, 5, 0, 7, 5]):
            evt = sim.timeout(d)
            evt.callbacks.append(lambda _e, i=i: fired.append((sim.now, i)))
        return sim, fired

    sim_step, fired_step = build()
    while sim_step.peek() is not None:
        sim_step.step()

    sim_run, fired_run = build()
    sim_run.run()
    assert fired_step == fired_run
    assert sim_step.now == sim_run.now
    assert sim_step.events_processed == sim_run.events_processed


# A process program: each process runs a list of operations against one
# shared store (capacity 2, so puts block), one single-slot resource and
# the other processes.  Gets may wait forever; the run then drains.
# ``sleep`` and ``hold`` wait by ``yield delay`` (or, in the timeout form,
# by ``yield sim.timeout(delay)``).
_op = st.one_of(
    st.tuples(st.just("timeout"), st.integers(min_value=0, max_value=20)),
    st.tuples(st.just("sleep"), st.integers(min_value=0, max_value=20)),
    st.tuples(st.just("put"), st.integers(min_value=0, max_value=9)),
    st.tuples(st.just("get"), st.just(0)),
    st.tuples(st.just("hold"), st.integers(min_value=0, max_value=20)),
    st.tuples(st.just("any"), st.integers(min_value=0, max_value=20)),
)
_process_programs = st.lists(st.lists(_op, max_size=8), min_size=1, max_size=6)


def _process_trace(program, drive: str, sleeps: bool = True) -> tuple[list, int]:
    """``[(time, label), ...]`` of a process program, and the event count.

    ``drive`` is ``"run"`` or ``"step"`` (a ``step()`` loop).  With
    ``sleeps=False`` every sleep is a yielded ``sim.timeout`` instead.
    """
    sim = Simulator()

    def wait(delay):
        return delay if sleeps else sim.timeout(delay)

    store = Store(sim, capacity=2)
    resource = Resource(sim, capacity=1)
    trace: list = []

    def body(pid, ops):
        for j, (kind, arg) in enumerate(ops):
            if kind == "timeout":
                yield sim.timeout(arg)
            elif kind == "sleep":
                yield wait(arg)
            elif kind == "put":
                yield store.put(arg)
            elif kind == "get":
                arg = yield store.get()
            elif kind == "hold":
                yield resource.request()
                yield wait(arg)
                resource.release()
            else:
                fired = yield sim.any_of([sim.timeout(arg, "a"), sim.timeout(arg // 2, "b")])
                arg = sorted(fired.values())
            trace.append((sim.now, (pid, j, kind, arg)))
        trace.append((sim.now, (pid, "done")))

    for pid, ops in enumerate(program):
        sim.process(body(pid, ops))
    if drive == "step":
        while sim.peek() is not None:
            sim.step()
    else:
        sim.run()
    return trace, sim.events_processed


@settings(max_examples=120, deadline=None)
@given(program=_process_programs)
def test_process_programs_identical_under_run_and_step(program):
    """Generated process programs (timeouts, sleeps, store hand-offs, a
    resource and ``any_of``) give the same trace and event count when
    driven by ``run()`` and by a ``step()`` loop: the run loop's inlined
    wake-ups behave like ``Process._resume`` and ``Process._wake``."""
    assert _process_trace(program, "run") == _process_trace(program, "step")


@settings(max_examples=120, deadline=None)
@given(program=_process_programs)
def test_sleeps_schedule_like_timeouts(program):
    """``yield delay`` fires every process step at the time and in the
    order ``yield sim.timeout(delay)`` does, with the same event count."""
    trace, events = _process_trace(program, "run")
    timeout_trace, timeout_events = _process_trace(program, "run", sleeps=False)
    assert trace == timeout_trace
    assert events == timeout_events
