"""Per-packet spans: the event side of the observability layer.

A :class:`Span` is one named region of virtual time on the packet path
(``vmexit``, ``dispatch``, ``encap``, ``link``, ...), tagged with the
component that emitted it (``who``), the layer it belongs to (``where``:
``guest`` / ``vmm`` / ``host`` / ``wire``), and — when the packet is in
hand — a flow id (``"srcmac>dstmac"`` or ``"srcip>dstip"``) plus the PDU
id of the packet.  Durations are in integer virtual nanoseconds read off
the simulation clock at span entry/exit.

Spans are recorded through :class:`SpanRecorder`, usually reached via
:class:`repro.obs.context.Observability`.  Recording is **off by
default** (it is O(events) memory); the always-on counterpart is the
metrics registry (:mod:`repro.obs.metrics`).

Instrumentation idiom — a ``with`` block inside a simulation process
works across ``yield``s, so a span brackets exactly the virtual time the
enclosed charges take::

    with obs.spans.span(STAGE_DISPATCH, who=self.name, where="vmm",
                        flow=flow_id(frame), packet=frame.id):
        yield self.sim.timeout(self.costs.dispatch_ns)

The stage taxonomy is documented in ``docs/observability.md``; the
canonical names below cover the VNET/P one-way path so that the recorded
breakdown can be compared stage-for-stage against the analytic model in
:mod:`repro.harness.breakdown`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from ..sim import Simulator

__all__ = [
    "Span",
    "SpanRecorder",
    "flow_id",
    "STAGE_ICMP_TX",
    "STAGE_VIRTIO_TX",
    "STAGE_VMEXIT",
    "STAGE_DISPATCH",
    "STAGE_COPY",
    "STAGE_COPY_ASYNC",
    "STAGE_VMENTRY",
    "STAGE_ENCAP",
    "STAGE_BRIDGE_TX",
    "STAGE_UDP_TX",
    "STAGE_NIC_TX",
    "STAGE_LINK",
    "STAGE_NIC_RX",
    "STAGE_SOFTIRQ_WAKE",
    "STAGE_UDP_RX",
    "STAGE_TCP_RX",
    "STAGE_SOCK_WAKE",
    "STAGE_DECAP",
    "STAGE_INJECT",
    "STAGE_GUEST_WAKE",
    "STAGE_VIRTIO_RX",
    "STAGE_ICMP_RX",
    "CANONICAL_STAGES",
]

# -- stage taxonomy (see docs/observability.md) -------------------------------
STAGE_ICMP_TX = "icmp-tx"            # app syscall + ICMP construction
STAGE_VIRTIO_TX = "virtio-tx"        # guest virtio driver + descriptor
STAGE_VMEXIT = "vmexit"              # TX-kick world switch into the VMM
STAGE_DISPATCH = "dispatch"          # core dequeue/demux + routing lookup
STAGE_COPY = "copy"                  # in-VMM packet copy (serial path)
STAGE_COPY_ASYNC = "copy-async"      # cut-through body copy, off the critical path
STAGE_VMENTRY = "vmentry"            # world switch back into the guest
STAGE_ENCAP = "encap"                # bridge wakeup + tx path + UDP header build
STAGE_BRIDGE_TX = "bridge-tx"        # bridge direct (unencapsulated) send
STAGE_UDP_TX = "udp-tx"              # host stack UDP/IP transmit + checksum
STAGE_NIC_TX = "nic-tx"              # NIC tx ring + wire serialization
STAGE_LINK = "link"                  # propagation (cable/PHY/switch hop)
STAGE_NIC_RX = "nic-rx"              # NIC rx ring + interrupt moderation
STAGE_SOFTIRQ_WAKE = "softirq-wake"  # driver IRQ -> stack softirq wakeup
STAGE_UDP_RX = "udp-rx"              # host stack UDP/IP receive + checksum
STAGE_TCP_RX = "tcp-rx"              # host stack TCP receive + checksum
STAGE_SOCK_WAKE = "sock-wake"        # blocked socket reader wakeup
STAGE_DECAP = "decap"                # bridge rx path + de-encapsulation
STAGE_INJECT = "inject"              # dispatcher-side interrupt injection
STAGE_GUEST_WAKE = "guest-wake"      # guest-side irq exit/entry (+ halted wake)
STAGE_VIRTIO_RX = "virtio-rx"        # guest virtio driver rx + descriptor
STAGE_ICMP_RX = "icmp-rx"            # guest/host ICMP receive handling

#: The stages that tile the VNET/P one-way packet path, in path order.
CANONICAL_STAGES = (
    STAGE_ICMP_TX,
    STAGE_VIRTIO_TX,
    STAGE_VMEXIT,
    STAGE_DISPATCH,
    STAGE_COPY,
    STAGE_VMENTRY,
    STAGE_ENCAP,
    STAGE_UDP_TX,
    STAGE_NIC_TX,
    STAGE_LINK,
    STAGE_NIC_RX,
    STAGE_SOFTIRQ_WAKE,
    STAGE_UDP_RX,
    STAGE_SOCK_WAKE,
    STAGE_DECAP,
    STAGE_INJECT,
    STAGE_GUEST_WAKE,
    STAGE_VIRTIO_RX,
    STAGE_ICMP_RX,
)


def flow_id(frame) -> str:
    """Canonical flow id for any PDU with ``src``/``dst`` attributes."""
    return f"{frame.src}>{frame.dst}"


@dataclass
class Span:
    """One closed region of virtual time on the packet path."""

    stage: str
    t0: int
    t1: int
    who: str = ""
    where: str = ""
    flow: Optional[str] = None
    packet: Any = None  # PDU id: int for frames/segments, str for icmp probes
    seq: int = 0
    parent: Optional[int] = field(default=None, compare=False)

    @property
    def ns(self) -> int:
        """Span duration in virtual nanoseconds."""
        return self.t1 - self.t0

    def to_dict(self) -> dict:
        """JSON-serialisable form (the JSONL exporter's record schema)."""
        return {
            "stage": self.stage,
            "t0": self.t0,
            "t1": self.t1,
            "who": self.who,
            "where": self.where,
            "flow": self.flow,
            "packet": self.packet,
            "seq": self.seq,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Span":
        """Inverse of :meth:`to_dict` (JSONL parse-back)."""
        return cls(
            stage=d["stage"],
            t0=d["t0"],
            t1=d["t1"],
            who=d.get("who", ""),
            where=d.get("where", ""),
            flow=d.get("flow"),
            packet=d.get("packet"),
            seq=d.get("seq", 0),
        )


class _NullSpan:
    """No-op context manager returned while recording is disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _LiveSpan:
    """Context manager that stamps ``sim.now`` on entry and exit."""

    __slots__ = ("recorder", "span")

    def __init__(self, recorder: "SpanRecorder", span: Span):
        self.recorder = recorder
        self.span = span

    def __enter__(self):
        self.span.t0 = self.recorder.sim.now
        return self.span

    def __exit__(self, *exc):
        self.span.t1 = self.recorder.sim.now
        self.recorder._commit(self.span)
        return False


class SpanRecorder:
    """Collects spans against one simulator's virtual clock.

    ``enabled`` may be flipped at any time; components call :meth:`span`
    unconditionally and pay only a cheap guard while recording is off.
    """

    def __init__(self, sim: "Simulator", enabled: bool = False):
        self.sim = sim
        self.enabled = enabled
        self.spans: list[Span] = []
        self._seq = 0

    def span(
        self,
        stage: str,
        who: str = "",
        where: str = "",
        flow: Optional[str] = None,
        packet: Optional[int] = None,
        flow_of: Any = None,
    ):
        """Context manager bracketing one stage of the packet path.

        ``flow_of`` is the lazy form of ``flow``: pass the PDU itself and
        the flow id string (and, when not given explicitly, the packet
        id) is only built when recording is enabled, so hot paths do not
        pay for string formatting while spans are off.
        """
        if not self.enabled:
            return _NULL_SPAN
        if flow_of is not None:
            if flow is None:
                flow = f"{flow_of.src}>{flow_of.dst}"
            if packet is None:
                packet = getattr(flow_of, "id", None)
        self._seq += 1
        return _LiveSpan(
            self,
            Span(stage=stage, t0=0, t1=0, who=who, where=where,
                 flow=flow, packet=packet, seq=self._seq),
        )

    def open(
        self,
        stage: str,
        who: str = "",
        where: str = "",
        flow: Optional[str] = None,
        packet: Optional[int] = None,
    ) -> Optional[Span]:
        """Manually-closed span for callback-style (non-generator) stages.

        Returns a :class:`Span` stamped ``t0 = now`` — close it with
        :meth:`close` when the deferred work completes — or ``None``
        while recording is disabled (callers pass that straight back to
        :meth:`close`, which ignores it).  This is the span idiom used
        by :meth:`repro.sim.pipeline.Port.push_after`, where the stage
        has no generator for a ``with`` block to live in.
        """
        if not self.enabled:
            return None
        self._seq += 1
        return Span(stage=stage, t0=self.sim.now, t1=0, who=who, where=where,
                    flow=flow, packet=packet, seq=self._seq)

    def close(self, span: Optional[Span]) -> None:
        """Stamp ``t1 = now`` on a span from :meth:`open` and record it."""
        if span is None:
            return
        span.t1 = self.sim.now
        self.spans.append(span)

    def event(
        self,
        stage: str,
        who: str = "",
        where: str = "",
        flow: Optional[str] = None,
        packet: Optional[int] = None,
    ) -> None:
        """Record an instantaneous (zero-duration) event at ``sim.now``."""
        if not self.enabled:
            return
        self._seq += 1
        now = self.sim.now
        self.spans.append(
            Span(stage=stage, t0=now, t1=now, who=who, where=where,
                 flow=flow, packet=packet, seq=self._seq)
        )

    def _commit(self, span: Span) -> None:
        self.spans.append(span)

    # -- queries ----------------------------------------------------------
    def of_stage(self, stage: str) -> list[Span]:
        """All recorded spans with the given stage name."""
        return [s for s in self.spans if s.stage == stage]

    def between(self, t0: int, t1: int) -> list[Span]:
        """Spans that *start* in the half-open window ``[t0, t1)``."""
        return [s for s in self.spans if t0 <= s.t0 < t1]

    def stages(self) -> list[str]:
        """Distinct stage names in first-appearance order."""
        seen: dict[str, None] = {}
        for s in self.spans:
            seen.setdefault(s.stage, None)
        return list(seen)

    def reset(self) -> None:
        """Drop all recorded spans (the enabled flag is unchanged)."""
        self.spans.clear()


def assign_parents(spans: Iterable[Span]) -> list[Span]:
    """Structural nesting: set each span's ``parent`` to the seq of the
    tightest enclosing span emitted by the same component (``who``).

    Nesting is reconstructed post-hoc from interval containment rather
    than tracked live, because spans from different simulation processes
    interleave freely in virtual time.  Returns the spans as a list,
    sorted by ``(t0, seq)``.
    """
    ordered = sorted(spans, key=lambda s: (s.t0, s.seq))
    for i, s in enumerate(ordered):
        s.parent = None
        best: Optional[Span] = None
        for other in ordered[:i]:
            if other.who != s.who or other is s:
                continue
            if other.t0 <= s.t0 and s.t1 <= other.t1 and other.seq != s.seq:
                if best is None or (other.t0, other.seq) >= (best.t0, best.seq):
                    best = other
        if best is not None:
            s.parent = best.seq
    return ordered


def self_ns(span: Span, spans: Iterable[Span]) -> int:
    """Span duration minus the durations of its direct children.

    ``spans`` must already have parents assigned (:func:`assign_parents`).
    """
    return span.ns - sum(s.ns for s in spans if s.parent == span.seq)
