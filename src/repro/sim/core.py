"""Discrete-event simulation kernel.

This is the substrate every other subsystem runs on.  It provides a
nanosecond-resolution virtual clock, a slot-array event queue, and cooperative
processes written as Python generators (in the style of SimPy, but
self-contained so the library has no simulation dependencies).

Typical use::

    sim = Simulator()

    def worker(sim):
        yield sim.timeout(100)      # wait 100 ns
        return "done"

    proc = sim.process(worker(sim))
    sim.run()
    assert proc.value == "done"

Time is an integer number of nanoseconds throughout the library; see
:mod:`repro.units` for conversion helpers.
"""

from __future__ import annotations

import heapq
from collections import deque
from sys import getrefcount
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "AnyOf",
    "AllOf",
    "Interrupt",
    "SimulationError",
    "Simulator",
]


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel (e.g. double-trigger)."""


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called.

    The interrupt ``cause`` is available as ``exc.cause``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Event lifecycle: PENDING -> TRIGGERED (scheduled on the heap) -> PROCESSED
# (callbacks have run).  A triggered event carries either a value or an
# exception; waiting processes receive the value or have the exception
# thrown into them.
_PENDING = 0
_TRIGGERED = 1
_PROCESSED = 2


class Event:
    """A one-shot occurrence at a point in simulated time.

    Events are the unit of synchronisation: processes ``yield`` events and
    are resumed when the event is processed.
    """

    __slots__ = ("sim", "callbacks", "_state", "_value", "_ok", "cancelled")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: list[Callable[[Event], None]] = []
        self._state = _PENDING
        self._value: Any = None
        self._ok = True
        # Set when the waiting process was interrupted away from this
        # event; queue primitives skip cancelled waiters instead of
        # handing them items nobody will consume.
        self.cancelled = False

    @property
    def triggered(self) -> bool:
        return self._state >= _TRIGGERED

    @property
    def processed(self) -> bool:
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        """Whether the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._state == _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None, delay: int = 0) -> "Event":
        """Trigger the event successfully with an optional ``value``."""
        if self._state != _PENDING:
            raise SimulationError("event already triggered")
        self._state = _TRIGGERED
        self._value = value
        self._ok = True
        self.sim._schedule(self, delay)
        return self

    def fail(self, exc: BaseException, delay: int = 0) -> "Event":
        """Trigger the event with an exception."""
        if self._state != _PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        self._state = _TRIGGERED
        self._value = exc
        self._ok = False
        self.sim._schedule(self, delay)
        return self

    def _process(self) -> None:
        self._state = _PROCESSED
        callbacks, self.callbacks = self.callbacks, []
        for cb in callbacks:
            cb(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = {_PENDING: "pending", _TRIGGERED: "triggered", _PROCESSED: "processed"}
        return f"<{type(self).__name__} {state[self._state]}>"


class Timeout(Event):
    """An event that fires ``delay`` nanoseconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: int, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.delay = delay
        self._state = _TRIGGERED
        self._value = value
        sim._schedule(self, delay)


class Process(Event):
    """A cooperative process driven by a generator.

    The process itself is an :class:`Event` that triggers when the
    generator returns (with the return value) or raises (with the
    exception, unless nothing is waiting on it, in which case the
    exception propagates out of :meth:`Simulator.run`).
    """

    __slots__ = ("gen", "_target", "name", "_resume_cb")

    def __init__(self, sim: "Simulator", gen: Generator, name: Optional[str] = None):
        super().__init__(sim)
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._target: Optional[Event] = None
        # One bound method for the life of the process: _resume is
        # registered as a callback on every event the process waits on,
        # and binding it per wait shows up at fast-path scale.
        self._resume_cb = self._resume
        # Bootstrap: start executing at the current time.
        init = sim.event()
        init.succeed()
        init.callbacks.append(self._resume_cb)
        self._target = init

    @property
    def is_alive(self) -> bool:
        return self._state == _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current wait."""
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt finished process {self.name}")
        if self._target is None:
            raise SimulationError(f"cannot interrupt unstarted process {self.name}")
        if not self._target.triggered:
            # Abandon the wait: queue primitives must not serve it.
            self._target.cancelled = True
        evt = self.sim.event()
        evt.fail(Interrupt(cause))
        evt.callbacks.append(self._resume_cb)

    def _resume(self, event: Event) -> None:
        # Stale wake-up: the process was interrupted (or otherwise resumed)
        # while this event was pending; ignore the original target firing.
        if event is not self._target and not isinstance(event._value, Interrupt):
            return
        if self._state != _PENDING:
            return
        self._target = None
        try:
            if event._ok:
                result = self.gen.send(event._value)
            else:
                result = self.gen.throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            if self.callbacks:
                self.fail(exc)
            else:
                # No one is watching this process: crash the simulation so
                # errors are never silently swallowed.
                self.sim._crash(exc)
            return
        if not isinstance(result, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {result!r}; processes must yield Events"
            )
        if result._state == _PROCESSED:
            # Already-processed events resume the process immediately (next
            # tick at the same timestamp).
            sim = self.sim
            evt = sim.event()
            if result._ok:
                evt.succeed(result._value)
            else:
                # Re-deliver the failure.
                evt._state = _TRIGGERED
                evt._value = result._value
                evt._ok = False
                sim._schedule(evt, 0)
            evt.callbacks.append(self._resume_cb)
            self._target = evt
        else:
            result.callbacks.append(self._resume_cb)
            self._target = result


class Condition(Event):
    """Composite event over several sub-events (see :class:`AnyOf`/:class:`AllOf`)."""

    __slots__ = ("events", "_need", "_done")

    def __init__(self, sim: "Simulator", events: Iterable[Event], need_all: bool):
        super().__init__(sim)
        self.events = list(events)
        for evt in self.events:
            if evt.sim is not sim:
                raise SimulationError("condition mixes events from different simulators")
        self._need = len(self.events) if need_all else min(1, len(self.events))
        self._done = 0
        if self._need == 0:
            self.succeed({})
            return
        for evt in self.events:
            if evt.processed:
                self._check(evt)
            else:
                evt.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._done += 1
        if self._done >= self._need:
            self.succeed(
                {evt: evt._value for evt in self.events if evt.processed and evt._ok}
            )


class AnyOf(Condition):
    """Triggers when any sub-event triggers; value maps fired events to values."""

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, events, need_all=False)


class AllOf(Condition):
    """Triggers when all sub-events have triggered."""

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, events, need_all=True)


class Simulator:
    """The event loop: a clock plus a slot array of triggered events.

    Scheduled events live in a **slot array**: a dict mapping each
    pending timestamp to the list of events firing then (in scheduling
    order), plus a heap of the *distinct* timestamps.  Compared with the
    classic ``(time, eid, event)`` tuple heap this removes the tuple
    allocation and the global event-id counter, heap operations compare
    plain ints, and the heap only grows with the number of distinct
    future times rather than the number of pending events.

    Three fast paths keep the per-event cost low without changing the
    observable schedule:

    * **immediate queue** — a zero-delay event goes straight onto a FIFO
      deque.  Whenever time advances, the *entire* slot at the new time
      is transferred onto that deque before any of it is processed, so
      no slot can exist at the current time while user code runs; FIFO
      deque order therefore equals the (time, eid) order the tuple heap
      used to produce (slot lists preserve scheduling order, and later
      zero-delay events append behind the remainder of the batch exactly
      as later eids sorted behind earlier ones).
    * **batched event application** — advancing time pops one timestamp
      and applies its whole slot through the immediate deque, one heap
      pop per distinct time instead of one per event.
    * **event pools** — processed :class:`Timeout` and plain
      :class:`Event` instances are recycled through free lists.  An
      object is only pooled when its refcount proves nothing outside
      :meth:`step` still references it, so user code that holds onto an
      event (conditions, queued waiters, saved timers) is never handed a
      reused object.
    """

    #: Upper bound on each free list; beyond this, events are left to the GC.
    POOL_MAX = 2048

    # Slotted: kernel attributes are read on every event; the extra slots
    # host the lazily-attached observability context (obs.context) and the
    # optional kernel self-profiler (obs.profile).
    __slots__ = (
        "_now",
        "_slots",
        "_times",
        "_immediate",
        "_crashed",
        "_timeout_pool",
        "_event_pool",
        "events_processed",
        "_repro_obs",
        "_profiler",
    )

    def __init__(self):
        self._now: int = 0
        self._slots: dict[int, list[Event]] = {}
        self._times: list[int] = []
        self._immediate: deque[Event] = deque()
        self._crashed: Optional[BaseException] = None
        self._timeout_pool: list[Timeout] = []
        self._event_pool: list[Event] = []
        #: Number of events processed by :meth:`step`.
        self.events_processed = 0
        # Optional repro.obs.profile.KernelProfiler.  run() reads it once
        # per call and calls its hooks only while it is enabled; otherwise
        # each event pays one local ``is not None`` check.
        self._profiler = None

    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now

    # -- factory helpers ---------------------------------------------------
    def event(self) -> Event:
        pool = self._event_pool
        if pool:
            evt = pool.pop()
            evt._state = _PENDING
            evt._ok = True
            evt.cancelled = False
            return evt
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        delay = int(delay)
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise ValueError(f"negative timeout delay: {delay}")
            evt = pool.pop()
            evt.delay = delay
            evt._state = _TRIGGERED
            evt._value = value
            evt._ok = True
            evt.cancelled = False
            # _schedule inlined: timeouts are the most common event kind.
            if delay:
                when = self._now + delay
                slots = self._slots
                slot = slots.get(when)
                if slot is None:
                    slots[when] = [evt]
                    heapq.heappush(self._times, when)
                else:
                    slot.append(evt)
            else:
                self._immediate.append(evt)
            return evt
        return Timeout(self, delay, value)

    def process(self, gen: Generator, name: Optional[str] = None) -> Process:
        return Process(self, gen, name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling --------------------------------------------------------
    def _schedule(self, event: Event, delay: int = 0) -> None:
        if delay:
            when = self._now + int(delay)
            slots = self._slots
            slot = slots.get(when)
            if slot is None:
                slots[when] = [event]
                heapq.heappush(self._times, when)
            else:
                slot.append(event)
        else:
            # No slot can exist at the current time (time only advances by
            # draining the whole earliest slot into the immediate deque and
            # positive delays land strictly in the future), so appending
            # preserves global (time, scheduling-order) order.
            self._immediate.append(event)

    def _crash(self, exc: BaseException) -> None:
        self._crashed = exc

    def peek(self) -> Optional[int]:
        """Time of the next scheduled event, or ``None`` if none is pending."""
        if self._immediate:
            return self._now
        return self._times[0] if self._times else None

    def step(self) -> None:
        """Process a single event."""
        immediate = self._immediate
        if not immediate:
            when = heapq.heappop(self._times)
            if when < self._now:  # pragma: no cover - defensive
                raise SimulationError("time went backwards")
            self._now = when
            immediate.extend(self._slots.pop(when))
        event = immediate.popleft()
        self.events_processed += 1
        event._process()
        if self._crashed is not None:
            exc, self._crashed = self._crashed, None
            raise exc
        # Recycle the event if nothing else can see it any more: refcount 2
        # is exactly our local binding plus getrefcount's own argument, so
        # user code holding a timer (any_of, saved events) blocks pooling.
        if getrefcount(event) == 2:
            cls = event.__class__
            if cls is Timeout:
                if len(self._timeout_pool) < self.POOL_MAX:
                    event._value = None
                    self._timeout_pool.append(event)
            elif cls is Event:
                if len(self._event_pool) < self.POOL_MAX:
                    event._value = None
                    self._event_pool.append(event)

    def run(self, until: Optional[int | Event] = None) -> Any:
        """Run until the queues drain, a deadline passes, or an event fires.

        ``until`` may be an absolute time (ns) or an :class:`Event`; when an
        event is given its value is returned (or its exception raised).

        This is the kernel's only event loop.  Hot kernel state — slot
        array, immediate queue, free lists — lives in locals for the whole
        run instead of calling :meth:`step` per event; :meth:`step` remains
        the single-event reference implementation and the two are
        behaviour-identical.  Deadline and drain runs wait on
        ``_NEVER``, an event that is never processed, so both run modes
        share one loop.  An enabled
        :class:`~repro.obs.profile.KernelProfiler` is fetched once per call
        and hooked in per clock advance and per event; it never touches
        the schedule.
        """
        if isinstance(until, Event):
            stop = until
            deadline = None
            if stop._state != _PROCESSED:
                # Registering interest routes process failures into the
                # event instead of crashing the whole simulation.
                stop.callbacks.append(_ignore)
        else:
            stop = _NEVER
            deadline = None if until is None else int(until)
        profiler = self._profiler
        if profiler is not None:
            if profiler.enabled:
                profiler.begin()
            else:
                profiler = None
        slots = self._slots
        times = self._times
        immediate = self._immediate
        pop = heapq.heappop
        timeout_pool = self._timeout_pool
        event_pool = self._event_pool
        refcount = getrefcount
        pool_max = self.POOL_MAX
        processed = 0
        try:
            while stop._state != _PROCESSED:
                if immediate:
                    event = immediate.popleft()
                elif times:
                    when = times[0]
                    if deadline is not None and when > deadline:
                        break
                    pop(times)
                    self._now = when
                    immediate.extend(slots.pop(when))
                    if profiler is not None:
                        profiler.advanced()
                    event = immediate.popleft()
                elif stop is _NEVER:
                    break
                else:
                    raise SimulationError(
                        "simulation ran out of events before the awaited event fired"
                    )
                processed += 1
                event._state = _PROCESSED
                callbacks = event.callbacks
                if callbacks:
                    event.callbacks = []
                    for cb in callbacks:
                        cb(event)
                if self._crashed is not None:
                    exc, self._crashed = self._crashed, None
                    raise exc
                if refcount(event) == 2:
                    cls = event.__class__
                    if cls is Timeout:
                        if len(timeout_pool) < pool_max:
                            event._value = None
                            timeout_pool.append(event)
                    elif cls is Event:
                        if len(event_pool) < pool_max:
                            event._value = None
                            event_pool.append(event)
                if profiler is not None:
                    profiler.charge(event, callbacks)
        finally:
            self.events_processed += processed
            if profiler is not None:
                profiler.end(processed)
        if stop is _NEVER:
            if deadline is not None:
                self._now = deadline
            return None
        if stop._ok:
            return stop._value
        raise stop._value


def _ignore(_event: Event) -> None:
    """Placeholder callback: marks an awaited event as watched."""


# The stop event of deadline and drain runs: never triggered, so
# Simulator.run's loop condition holds until a deadline or an empty queue
# breaks out.
_NEVER = Event(None)
