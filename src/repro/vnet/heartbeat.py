"""Overlay link heartbeats: the active half of failure detection.

Each VNET/P core periodically emits a tiny :class:`HeartbeatFrame` on
every UDP overlay link it owns.  The frame rides the *real* datapath —
bridge TX queue, UDP encapsulation, host stack, physical network — so a
faulted link (partition, loss or burst-loss window) silences exactly the
heartbeats a real deployment would lose.  On arrival the receiving
core's :meth:`~repro.vnet.core.VnetCore._accept_inbound` intercepts the
frame (it never reaches a guest) and feeds the peer's
:class:`~repro.vnet.monitor.TrafficMonitor`, whose phi-style detector
(:meth:`~repro.vnet.monitor.TrafficMonitor.phi`) turns heartbeat
silence into a link-death verdict that the
:class:`~repro.vnet.adaptation.AdaptationEngine` acts on.

The service loop is bounded by ``until_ns`` so a drained ``sim.run()``
terminates; pass ``None`` only when the harness stops the simulator by
horizon itself.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..obs.context import Observability
from ..sim import Simulator
from .overlay import LinkProto

if TYPE_CHECKING:  # pragma: no cover
    from .core import VnetCore

__all__ = ["HeartbeatFrame", "HeartbeatService", "HEARTBEAT_SIZE"]

# On-wire size of a heartbeat (bytes): far below any MTU, so it never
# fragments and its encapsulation cost is a single datagram.
HEARTBEAT_SIZE = 64


class HeartbeatFrame:
    """A control frame probing one overlay link's liveness.

    Duck-typed like every pipeline frame (``size``/``src``/``dst``), but
    recognized *by class* on the inbound path — it is VNET control
    traffic, invisible to guests and to the routing table.
    """

    __slots__ = ("src_host_ip", "link_name", "seq")

    size = HEARTBEAT_SIZE
    payload_size = HEARTBEAT_SIZE

    def __init__(self, src_host_ip: str, link_name: str, seq: int):
        self.src_host_ip = src_host_ip
        self.link_name = link_name
        self.seq = seq

    @property
    def src(self) -> str:
        return f"hb:{self.src_host_ip}"

    @property
    def dst(self) -> str:
        return f"hb:{self.link_name}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<HeartbeatFrame {self.src_host_ip} {self.link_name} "
                f"#{self.seq}>")


class HeartbeatService:
    """Emits heartbeats on every UDP overlay link of one core.

    Creates the core's :class:`~repro.vnet.monitor.TrafficMonitor` if
    none is installed, and registers every probed link with the
    monitor's liveness tracker so silence is measurable from the first
    beat onward.
    """

    COUNTERS = ("sent", "send_failed")

    def __init__(
        self,
        sim: Simulator,
        core: "VnetCore",
        interval_ns: int = 500_000,
        until_ns: Optional[int] = None,
    ):
        if interval_ns <= 0:
            raise ValueError(f"heartbeat interval must be positive, got {interval_ns}")
        self.sim = sim
        self.core = core
        self.interval_ns = int(interval_ns)
        self.until_ns = until_ns
        self.seq = 0
        # Heartbeats enqueued onto the bridge, and those the full bridge
        # queue refused.
        self.sent = self.send_failed = 0
        Observability.of(sim).metrics.publish(f"vnet.heartbeat.{core.host.name}", self)
        if core.monitor is None:
            from .monitor import TrafficMonitor

            TrafficMonitor(sim, core)

    def start(self):
        """Spawn the emit loop; returns the simulator process."""
        return self.sim.process(
            self._loop(), name=f"{self.core.name}.heartbeat"
        )

    def _loop(self):
        core = self.core
        monitor = core.monitor
        while self.until_ns is None or self.sim.now < self.until_ns:
            for link in list(core.links.values()):
                if link.proto is not LinkProto.UDP:
                    continue
                monitor.watch_link(link.name, link.dst_ip, self.interval_ns)
                frame = HeartbeatFrame(
                    src_host_ip=core.host.ip, link_name=link.name, seq=self.seq
                )
                self.seq += 1
                if core.bridge is not None and core.bridge.txq.try_put((frame, link)):
                    self.sent += 1
                else:
                    self.send_failed += 1
            yield self.interval_ns
