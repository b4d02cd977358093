"""Synchronisation primitives built on the event kernel.

* :class:`Store` — FIFO channel with optional capacity; the workhorse for
  packet queues (virtio rings, bridge buffers, NIC queues).
* :class:`Resource` — counted resource with FIFO request queue; models CPU
  cores and NIC transmit engines.
* :class:`Signal` — re-armable broadcast used for "work available" wakeups
  (e.g. a packet dispatcher sleeping until a ring becomes non-empty).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from .core import _TRIGGERED, Event, SimulationError, Simulator

__all__ = ["Store", "Resource", "Signal"]


def _trigger_now(sim: Simulator, evt: Event, value: Any = None) -> None:
    """Trigger a known-pending event at the current time.

    Inlined ``Event.succeed(value)`` minus the double-trigger guard plus
    the zero-delay branch of ``Simulator._schedule`` — valid only for
    events this module created itself and therefore knows are pending
    (fresh from ``sim.event()``, or parked on a waiter queue that nothing
    else can trigger).  Store hand-offs are the hottest non-timeout event
    source in the simulator, which is why they get this shortcut.
    """
    evt._state = _TRIGGERED
    evt._value = value
    # Zero delay always means the immediate deque: the kernel never leaves
    # a slot at the current time (see Simulator._schedule).
    sim._immediate.append(evt)


class Store:
    """A FIFO queue that processes can block on.

    ``put`` blocks when the store is full (if a capacity is set) and
    ``get`` blocks when it is empty.  Both return events to ``yield`` on.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None, name: str = "store"):
        if capacity is not None and capacity < 1:
            raise ValueError(f"store capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Return an event that fires once ``item`` is accepted."""
        evt = self.sim.event()
        capacity = self.capacity
        items = self.items
        if capacity is None or len(items) < capacity:
            items.append(item)
            _trigger_now(self.sim, evt)
            if self._getters:
                self._wake_getter()
        else:
            self._putters.append((evt, item))
        return evt

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False (drops) when full."""
        capacity = self.capacity
        items = self.items
        if capacity is not None and len(items) >= capacity:
            return False
        items.append(item)
        if self._getters:
            self._wake_getter()
        return True

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        evt = self.sim.event()
        items = self.items
        if items:
            _trigger_now(self.sim, evt, items.popleft())
            if self._putters:
                self._admit_putter()
        else:
            self._getters.append(evt)
        return evt

    def try_get(self) -> Any:
        """Non-blocking get; returns None when empty."""
        items = self.items
        if not items:
            return None
        item = items.popleft()
        if self._putters:
            self._admit_putter()
        return item

    def get_batch(self, limit: Optional[int] = None) -> list[Any]:
        """Non-blocking bulk drain: pop up to ``limit`` items (all when None).

        Equivalent to calling :meth:`try_get` in a loop — blocked putters
        are admitted as space frees up and their items are drained too —
        but in one call, which is what lets a single virtio kick or guest
        interrupt process its whole ring backlog cheaply.
        """
        items: list[Any] = []
        queue = self.items
        putters = self._putters
        while queue and (limit is None or len(items) < limit):
            items.append(queue.popleft())
            if putters:
                self._admit_putter()
        return items

    def _wake_getter(self) -> None:
        sim = self.sim
        getters = self._getters
        items = self.items
        while getters and items:
            getter = getters.popleft()
            if getter.cancelled:
                continue  # waiter was interrupted away; keep the item
            _trigger_now(sim, getter, items.popleft())
            if self._putters:
                self._admit_putter()

    def _admit_putter(self) -> None:
        sim = self.sim
        putters = self._putters
        items = self.items
        capacity = self.capacity
        while putters and (capacity is None or len(items) < capacity):
            putter, item = putters.popleft()
            if putter.cancelled:
                continue  # interrupted putter: its item is not enqueued
            items.append(item)
            _trigger_now(sim, putter)
            # The newly stored item may satisfy a waiting getter.
            if self._getters:
                self._wake_getter()


class Resource:
    """A counted resource with a FIFO wait queue.

    Usage::

        with-style is not available in generators; instead:

        yield res.request()
        try:
            ...
        finally:
            res.release()
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise ValueError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    def request(self) -> Event:
        evt = self.sim.event()
        if self.in_use < self.capacity:
            self.in_use += 1
            evt.succeed()
        else:
            self._waiters.append(evt)
        return evt

    def release(self) -> None:
        if self.in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        while self._waiters:
            waiter = self._waiters.popleft()
            if waiter.cancelled:
                continue  # interrupted away before acquiring
            # Hand the slot directly to the next live waiter.
            waiter.succeed()
            return
        self.in_use -= 1


class Signal:
    """Re-armable broadcast event.

    ``wait()`` returns an event tied to the *current* arming; ``fire()``
    triggers all outstanding waits and re-arms.  Used for edge-triggered
    notifications (ring non-empty, config changed, ...).
    """

    def __init__(self, sim: Simulator, name: str = "signal"):
        self.sim = sim
        self.name = name
        self._event = sim.event()
        self.fire_count = 0

    def wait(self) -> Event:
        return self._event

    def fire(self, value: Any = None) -> None:
        self.fire_count += 1
        evt, self._event = self._event, self.sim.event()
        evt.succeed(value)
