"""Unified datapath pipeline: :class:`Port`, :class:`PacketStage`,
:class:`CopyCharger`.

Every hop of the simulated packet path — virtio ring, VNET/P core,
bridge, host stack, physical NIC, link/switch — hands frames to the
next layer through one abstraction:

* :class:`Port` — a named, unidirectional hand-off point with exactly
  one downstream sink.  ``push()`` delivers synchronously (the sink may
  signal backpressure by returning ``False``); ``push_after()`` charges
  a latency and delivers through a single pooled kernel event instead of
  spawning a process per frame, which is the sim-kernel fast path for
  wire propagation, NIC receive completion and switch fabric traversal.
* :class:`PacketStage` — base class for datapath components.  A stage
  accepts frames through ``ingress(frame) -> bool`` and emits them
  through named :class:`Port`\\ s registered in ``stage.ports``.
* :class:`CopyCharger` — charged-not-performed copy accounting.  Frames
  are slotted descriptors whose payloads are shared by reference; a
  "copy" charges virtual time against the host memory system and counts
  the bytes, but never duplicates the payload object (the zero-copy
  analogue of VNET/P+ cut-through forwarding).

Ownership rules (see ``docs/architecture.md``):

1. Pushing a frame into a Port transfers ownership downstream; the
   pushing stage must not mutate or re-send the descriptor afterwards.
2. Payloads are immutable once a descriptor is in flight.  Stages that
   conceptually copy (VMM copy, bridge-VM crossing) go through
   :class:`CopyCharger` / ``MemorySystem.copy_at`` so the *time* and
   *bandwidth contention* of the copy are modelled without moving data.
3. A Port has exactly one sink.  Build-time wiring uses
   :meth:`Port.connect`, which raises on double connection (a NIC
   cannot be cabled twice); instrumentation harnesses that
   wrap-and-restore a sink (pcap taps, fault injectors) use
   :meth:`Port.rebind`.

Span integration: a Port constructed with a recorder and a stage name
records one span per ``push_after`` (t0 at push, t1 at delivery) with
``flow`` formatted exactly like :func:`repro.obs.span.flow_id`.  The
recorder is duck-typed so this module keeps zero dependencies beyond the
kernel.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, Optional

from .core import _TRIGGERED, Simulator

__all__ = ["Port", "PacketStage", "CopyCharger"]


class Port:
    """A unidirectional frame hand-off point between two pipeline stages.

    Counters (``frames``, ``bytes``, ``drops``) are plain integers so a
    push costs two additions; expose them through the metrics registry
    at the owning stage if aggregate visibility is needed.
    """

    __slots__ = (
        "sim",
        "name",
        "sink",
        "frames",
        "bytes",
        "drops",
        "_spans",
        "_stage",
        "_who",
        "_where",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str,
        spans: Any = None,
        stage: Optional[str] = None,
        who: str = "",
        where: str = "",
    ):
        self.sim = sim
        self.name = name
        self.sink: Optional[Callable[[Any], Any]] = None
        self.frames = 0
        self.bytes = 0
        self.drops = 0
        # Optional span configuration for push_after (one span per frame).
        self._spans = spans
        self._stage = stage
        self._who = who
        self._where = where

    @property
    def connected(self) -> bool:
        return self.sink is not None

    def connect(self, sink: Callable[[Any], Any]) -> None:
        """Build-time wiring; a Port has exactly one sink."""
        if self.sink is not None:
            raise RuntimeError(f"port {self.name} already connected")
        self.sink = sink

    def rebind(self, sink: Optional[Callable[[Any], Any]]) -> None:
        """Swap (or clear) the sink — for harnesses that wrap and restore."""
        self.sink = sink

    def push(self, frame: Any) -> bool:
        """Deliver ``frame`` to the sink now.

        Returns ``False`` when the sink refused the frame (backpressure:
        ring full, queue overflow) or no sink is connected; either way
        the drop is counted and the frame is gone — descriptor ownership
        passed to this port at the call.
        """
        self.frames += 1
        self.bytes += frame.size
        sink = self.sink
        if sink is None or sink(frame) is False:
            self.drops += 1
            return False
        return True

    def push_after(self, frame: Any, delay_ns: int) -> None:
        """Deliver ``frame`` after charging ``delay_ns`` of latency.

        Latency, not occupancy: concurrent pushes overlap freely (wire
        propagation, rx-interrupt delay, switch fabric).  Costs one
        pooled kernel event instead of a spawned process per frame; the
        configured stage span (if recording is on) brackets exactly
        ``[now, now + delay_ns]``.
        """
        sim = self.sim
        spans = self._spans
        evt = sim.event()
        if spans is not None and spans.enabled:
            span = spans.open(
                self._stage,
                who=self._who,
                where=self._where,
                flow=f"{frame.src}>{frame.dst}",
            )

            def _arrive(_evt: Any, span: Any = span) -> None:
                spans.close(span)
                self.push(frame)

            evt.callbacks.append(_arrive)
        else:
            evt.callbacks.append(lambda _evt: self.push(frame))
        # Inlined Event.succeed + Simulator._schedule: the event is fresh
        # from the pool, so the pending check is vacuous and the hand-off
        # costs one slot append (or an immediate-queue append).
        evt._state = _TRIGGERED
        if delay_ns:
            when = sim._now + int(delay_ns)
            slots = sim._slots
            slot = slots.get(when)
            if slot is None:
                slots[when] = [evt]
                heappush(sim._times, when)
            else:
                slot.append(evt)
        else:
            sim._immediate.append(evt)

    def stats(self) -> dict:
        return {"frames": self.frames, "bytes": self.bytes, "drops": self.drops}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "connected" if self.connected else "unconnected"
        return f"<Port {self.name} {state} frames={self.frames}>"


class PacketStage:
    """Base class for datapath components.

    A stage accepts frames synchronously through ``ingress(frame)``
    (return ``False`` to signal backpressure — the caller counts the
    drop) and emits them through named egress :class:`Port`\\ s created
    with :meth:`make_port`.  Stages whose ingress must *block* the
    producer (bridge tx buffers, virtio rings on the guest side) keep a
    :class:`~repro.sim.primitives.Store` in front instead; the
    ``ingress`` of such a stage is its non-blocking ``try_put`` face.

    Subclasses call :meth:`_init_stage` once their ``sim`` and display
    name are known, then create ports.  ``ports`` is the wiring
    introspection surface the pipeline tests (and debuggers) walk.
    """

    def _init_stage(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.ports: dict[str, Port] = {}

    def make_port(self, label: str, **span_cfg: Any) -> Port:
        port = Port(self.sim, f"{self.name}.{label}", **span_cfg)
        self.ports[label] = port
        return port

    def ingress(self, frame: Any) -> bool:
        raise NotImplementedError(f"{type(self).__name__} has no ingress")


class CopyCharger:
    """Charged-not-performed copy accounting for descriptor frames.

    Wraps ``MemorySystem.copy_at``: the virtual time of the copy is
    charged against the shared memory system (so concurrent copies
    contend for bandwidth exactly as before), the copied bytes are
    counted, and **no data moves** — descriptor payloads are shared by
    reference end to end.
    """

    __slots__ = ("memory", "bw_Bps", "copies", "bytes", "_counter")

    def __init__(self, memory: Any, bw_Bps: float, counter: Any = None):
        self.memory = memory
        self.bw_Bps = bw_Bps
        self.copies = 0
        self.bytes = 0
        # Optional metrics-registry counter (charged bytes).
        self._counter = counter

    def charge(self, nbytes: int):
        """Generator: charge one copy of ``nbytes`` at the configured rate.

        Yields exactly the events ``memory.copy_at`` yields, so swapping
        a performed copy for a charged one is timing-neutral.
        """
        self.copies += 1
        self.bytes += nbytes
        if self._counter is not None:
            self._counter.inc(nbytes)
        yield from self.memory.copy_at(nbytes, self.bw_Bps)
