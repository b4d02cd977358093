"""Discrete-event simulation kernel.

This is the substrate every other subsystem runs on.  It provides a
nanosecond-resolution virtual clock, a slot-array event queue, and cooperative
processes written as Python generators (in the style of SimPy, but
self-contained so the library has no simulation dependencies).

Typical use::

    sim = Simulator()

    def worker(sim):
        yield 100                   # sleep 100 ns
        return "done"

    proc = sim.process(worker(sim))
    sim.run()
    assert proc.value == "done"

A process yields either an :class:`Event` to wait for or a non-negative
``int`` delay to sleep for.  A sleep needs no event object: the process
itself is queued where a :class:`Timeout` would have been.

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
    "SimulationError",
    "Simulator",
]


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel (e.g. double-trigger)."""


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

    __slots__ = ("sim", "callbacks", "_state", "_value", "_ok")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: list[Callable[[Event], None]] = []
        self._state = _PENDING
        self._value: Any = None
        self._ok = True

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

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: int, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self._state = _TRIGGERED
        self._value = value
        sim._schedule(self, delay)


class Process(Event):
    """A cooperative process driven by a generator.

    The process itself is an :class:`Event` that triggers when the
    generator returns (with the return value) or raises (with the
    exception, unless nothing is waiting on it, in which case the
    exception propagates out of :meth:`Simulator.run`).

    The generator yields either an :class:`Event` to wait for or a
    non-negative ``int`` delay in nanoseconds to sleep for.

    * **Waiting** — a process is its own wake-up callback: it sits in the
      callback list of the event it waits on, :meth:`Simulator.run`
      recognises it there and resumes it inline, and anything else that
      fires callbacks (:meth:`Event._process`, hence
      :meth:`Simulator.step`) calls it, which is :meth:`_resume`.
    * **Sleeping** — the process itself is queued (slot array, or the
      immediate deque for 0) at the position a :class:`Timeout` of that
      delay would take, while still pending; the kernel resumes a
      pending process it pops with ``None`` (:meth:`_wake`).  A new
      process sleeps for 0 to start.

    A process sits in exactly one queue or callback list at a time, so
    every wake-up it receives is the one it waits for.
    """

    __slots__ = ("gen", "name")

    def __init__(self, sim: "Simulator", gen: Generator, name: Optional[str] = None):
        super().__init__(sim)
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        # Bootstrap: start executing at the current time.
        sim._immediate.append(self)

    @property
    def is_alive(self) -> bool:
        return self._state == _PENDING

    def _resume(self, event: Event) -> None:
        """The awaited ``event`` fired (:meth:`Simulator.run` inlines this
        method; keep the two in step)."""
        try:
            if event._ok:
                result = self.gen.send(event._value)
            else:
                result = self.gen.throw(event._value)
        except BaseException as exc:
            self._exit(exc)
            return
        self._wait(result)

    __call__ = _resume

    def _wake(self) -> None:
        """The sleep ended: resume with ``None`` (:meth:`Simulator.run`
        inlines this method; keep the two in step)."""
        try:
            result = self.gen.send(None)
        except BaseException as exc:
            self._exit(exc)
            return
        self._wait(result)

    def _exit(self, exc: BaseException) -> None:
        """The generator returned (``StopIteration``) or raised ``exc``."""
        if isinstance(exc, StopIteration):
            self.succeed(exc.value)
        elif self.callbacks:
            self.fail(exc)
        else:
            # No one is watching this process: crash the simulation so
            # errors are never silently swallowed.
            self.sim._crash(exc)

    def _wait(self, result: Any) -> None:
        """Park on ``result``: the event or delay the generator just yielded."""
        sim = self.sim
        if result.__class__ is int:
            if result < 0:
                raise ValueError(f"negative timeout delay: {result}")
            sim._schedule(self, result)
            return
        if not isinstance(result, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {result!r}; "
                "processes must yield Events or int delays"
            )
        if result._state == _PROCESSED:
            # Already-processed events resume the process immediately (next
            # tick at the same timestamp).
            evt = sim.event()
            if result._ok:
                evt.succeed(result._value)
            else:
                # Re-deliver the failure.
                evt._state = _TRIGGERED
                evt._value = result._value
                evt._ok = False
                sim._schedule(evt, 0)
            result = evt
        result.callbacks.append(self)


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

    An entry is either a triggered event or a sleeping :class:`Process`
    (still pending: it yielded an ``int`` delay, see :class:`Process`).
    Popping either is one processed event; a sleeping process is resumed
    directly, with no event object, callback list or pooling.

    Four fast paths keep the per-event cost low without changing the
    observable schedule:

    * **sleeping processes** — ``yield delay`` queues the process itself
      where a ``sim.timeout(delay)`` would queue its :class:`Timeout`,
      so the schedule is the same and a wake-up needs no event object.
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
      pop per distinct time instead of one per event; :meth:`run` takes
      the event of a one-event slot directly.
    * **event pool** — processed plain :class:`Event` instances (store
      hand-offs, resource grants, signals) are recycled through a free
      list.  An object is only pooled when its refcount proves nothing
      outside :meth:`step` still references it, so user code that holds
      onto an event (conditions, queued waiters, saved events) is never
      handed a reused object.
    """

    #: Upper bound on the free list: a full pool drops its oldest event
    #: to the GC as a new one comes in.
    POOL_MAX = 2048

    # Slotted: kernel attributes are read on every event; the extra slots
    # host the lazily-attached observability context (obs.context) and the
    # optional kernel self-profiler (obs.profile).
    __slots__ = (
        "now",
        "_slots",
        "_times",
        "_immediate",
        "_crashed",
        "_event_pool",
        "events_processed",
        "_repro_obs",
        "_profiler",
    )

    def __init__(self):
        #: Current simulation time in nanoseconds (written by the kernel only).
        self.now: int = 0
        self._slots: dict[int, list[Event]] = {}
        self._times: list[int] = []
        self._immediate: deque[Event] = deque()
        self._crashed: Optional[BaseException] = None
        self._event_pool: deque[Event] = deque(maxlen=self.POOL_MAX)
        #: Number of events processed by :meth:`step`.
        self.events_processed = 0
        # Optional repro.obs.profile.KernelProfiler.  run() reads it once
        # per call and calls its hooks only while it is enabled; otherwise
        # each event pays one local ``is not None`` check.
        self._profiler = None

    # -- factory helpers ---------------------------------------------------
    def event(self) -> Event:
        pool = self._event_pool
        if pool:
            evt = pool.pop()
            evt._state = _PENDING
            evt._ok = True
            return evt
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """An event that fires ``delay`` ns from now with ``value``.

        A process sleeps with ``yield delay``; a :class:`Timeout` is for
        code that needs the event object (``any_of``, ``run(until=...)``,
        a timer it keeps).
        """
        return Timeout(self, int(delay), value)

    def process(self, gen: Generator, name: Optional[str] = None) -> Process:
        return Process(self, gen, name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling --------------------------------------------------------
    def _schedule(self, event: Event, delay: int = 0) -> None:
        if delay:
            when = self.now + int(delay)
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
            return self.now
        return self._times[0] if self._times else None

    def step(self) -> None:
        """Process a single event."""
        immediate = self._immediate
        if not immediate:
            when = heapq.heappop(self._times)
            if when < self.now:  # pragma: no cover - defensive
                raise SimulationError("time went backwards")
            self.now = when
            immediate.extend(self._slots.pop(when))
        event = immediate.popleft()
        self.events_processed += 1
        if event._state == _PENDING:
            event._wake()
        else:
            event._process()
        if self._crashed is not None:
            exc, self._crashed = self._crashed, None
            raise exc
        # Recycle the event if nothing else can see it any more: refcount 2
        # is exactly our local binding plus getrefcount's own argument, so
        # user code holding an event (any_of, saved events) blocks pooling.
        if getrefcount(event) == 2 and event.__class__ is Event:
            event._value = None
            self._event_pool.append(event)

    def run(self, until: Optional[int | Event] = None) -> Any:
        """Run until the queues drain, a deadline passes, or an event fires.

        ``until`` may be an absolute time (ns), not before :attr:`now`, or
        an :class:`Event`; when an event is given its value is returned (or
        its exception raised).

        This is the kernel's only event loop.  Hot kernel state — slot
        array, immediate queue, free list — lives in locals for the whole
        run instead of calling :meth:`step` per event; :meth:`step` remains
        the single-event reference implementation and the two are
        behaviour-identical.  A popped sleeping process is resumed inline
        (the body of :meth:`Process._wake`), and so is a :class:`Process`
        callback (the body of :meth:`Process._resume`); any other callback
        is called.  No local outlives its event's turn: a held slot list
        or yielded event would fail the pooling refcount test.  Deadline
        and drain runs wait on ``_NEVER``, an event that is never
        processed, so both run modes share one loop.  An enabled
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
            if deadline is not None and deadline < self.now:
                raise ValueError(f"deadline {deadline} ns is before now ({self.now} ns)")
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
        push = heapq.heappush
        event_pool = self._event_pool
        refcount = getrefcount
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
                    self.now = when
                    slot = slots.pop(when)
                    if len(slot) == 1:
                        event = slot[0]
                    else:
                        immediate.extend(slot)
                        event = immediate.popleft()
                    # A held slot list would pin its events out of the pool.
                    slot = None
                    if profiler is not None:
                        profiler.advanced()
                elif stop is _NEVER:
                    break
                else:
                    raise SimulationError(
                        "simulation ran out of events before the awaited event fired"
                    )
                processed += 1
                if event._state == _PENDING:
                    # A sleeping process wakes: Process._wake, inlined.
                    try:
                        result = event.gen.send(None)
                    except StopIteration as ret:
                        # Process._exit -> succeed, inlined: a returning
                        # process triggers itself now.
                        event._state = _TRIGGERED
                        event._value = ret.value
                        immediate.append(event)
                    except BaseException as exc:
                        event._exit(exc)
                    else:
                        if result.__class__ is int and result >= 0:
                            # Process._wait of a delay, inlined.
                            if result:
                                when = self.now + result
                                slot = slots.get(when)
                                if slot is None:
                                    slots[when] = [event]
                                    push(times, when)
                                else:
                                    slot.append(event)
                            else:
                                immediate.append(event)
                        elif isinstance(result, Event) and result._state != _PROCESSED:
                            result.callbacks.append(event)
                        else:
                            event._wait(result)
                        # A held yielded event would miss the pool when it fires.
                        result = None
                    # Charged to the process itself (KernelProfiler.charge).
                    callbacks = None
                else:
                    event._state = _PROCESSED
                    callbacks = event.callbacks
                    if callbacks:
                        event.callbacks = []
                        for cb in callbacks:
                            if cb.__class__ is not Process:
                                cb(event)
                                continue
                            # Process._resume, inlined.
                            try:
                                if event._ok:
                                    result = cb.gen.send(event._value)
                                else:
                                    result = cb.gen.throw(event._value)
                            except BaseException as exc:
                                cb._exit(exc)
                                continue
                            if result.__class__ is int and result > 0:
                                # Process._wait of a delay, inlined.
                                when = self.now + result
                                slot = slots.get(when)
                                if slot is None:
                                    slots[when] = [cb]
                                    push(times, when)
                                else:
                                    slot.append(cb)
                            elif isinstance(result, Event) and result._state != _PROCESSED:
                                result.callbacks.append(cb)
                            else:
                                cb._wait(result)
                            # A held yielded event would miss the pool when it fires.
                            result = None
                    if refcount(event) == 2 and event.__class__ is Event:
                        event._value = None
                        event_pool.append(event)
                if self._crashed is not None:
                    exc, self._crashed = self._crashed, None
                    raise exc
                if profiler is not None:
                    profiler.charge(event, callbacks)
        finally:
            self.events_processed += processed
            if profiler is not None:
                profiler.end(processed)
        if stop is _NEVER:
            if deadline is not None:
                self.now = deadline
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
