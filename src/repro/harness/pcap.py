"""Packet capture: tcpdump for the simulated network.

Attach a :class:`PacketCapture` to any NIC to record what crosses it —
direction, timestamps, sizes, and the protocol chain (Ethernet / ARP /
IP / UDP / TCP / ICMP / VNET encapsulation) — then render a
tcpdump-style text listing.  Invaluable for debugging overlay paths:
one capture on the physical NIC shows the encapsulated traffic, one on
the virtio NIC shows what the guest believes it is sending.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..hw.nic import PhysicalNIC
from ..proto.arp import ArpMessage
from ..proto.ethernet import EthernetFrame
from ..proto.icmp import ICMPMessage
from ..proto.ip import IPv4Packet
from ..proto.tcp import TcpSegment
from ..proto.udp import UDPDatagram
from ..sim import Simulator
from ..vnet.encap import VnetEncap

__all__ = ["CapturedFrame", "PacketCapture", "describe_frame"]


def describe_frame(frame: Any) -> str:
    """One-line protocol summary of a frame/packet chain."""
    parts: list[str] = []
    obj = frame
    depth = 0
    while obj is not None and depth < 8:
        depth += 1
        if isinstance(obj, EthernetFrame):
            parts.append(f"eth {obj.src}>{obj.dst}")
            obj = obj.payload
        elif isinstance(obj, ArpMessage):
            kind = "who-has" if obj.op == 1 else "is-at"
            parts.append(f"arp {kind} {obj.target_ip} tell {obj.sender_ip}")
            obj = None
        elif isinstance(obj, IPv4Packet):
            frag = " frag" if obj.is_fragment else ""
            parts.append(f"ip {obj.src}>{obj.dst}{frag}")
            obj = obj.payload
        elif isinstance(obj, UDPDatagram):
            parts.append(f"udp {obj.sport}>{obj.dport}")
            obj = obj.payload
        elif isinstance(obj, VnetEncap):
            parts.append(f"vnet[{obj.link_name}]")
            obj = obj.inner
        elif isinstance(obj, TcpSegment):
            flags = "".join(
                f for f, on in (("S", obj.syn), ("F", obj.fin), (".", obj.is_ack)) if on
            )
            parts.append(
                f"tcp {obj.sport}>{obj.dport} [{flags}] seq={obj.seq} "
                f"ack={obj.ack} len={obj.payload_bytes}"
            )
            obj = None
        elif isinstance(obj, ICMPMessage):
            kind = "echo-request" if obj.icmp_type == 8 else "echo-reply"
            parts.append(f"icmp {kind} id={obj.ident} seq={obj.seq}")
            obj = None
        else:
            parts.append(type(obj).__name__.lower())
            obj = None
    return " / ".join(parts)


@dataclass
class CapturedFrame:
    """One captured frame with direction and timestamp."""

    when_ns: int
    direction: str            # "tx" | "rx"
    size: int
    summary: str
    frame: Any

    def render(self) -> str:
        return f"{self.when_ns / 1000:12.3f}us {self.direction} {self.size:5d}B  {self.summary}"


class PacketCapture:
    """Interposes on a PhysicalNIC to record tx and rx frames."""

    def __init__(self, nic: PhysicalNIC, max_frames: int = 10_000):
        self.nic = nic
        self.max_frames = max_frames
        self.frames: list[CapturedFrame] = []
        self.truncated = 0
        self._sim: Simulator = nic.sim
        # Wrap the sinks of the tx port (the medium) and the rx port.
        if not nic.attached:
            raise RuntimeError(f"{nic.name} must be attached before capturing")
        self._inner_medium = nic.tx_port.sink
        nic.tx_port.rebind(self._on_tx)
        self._inner_rx = nic.rx_port.sink
        nic.rx_port.rebind(self._on_rx)

    def _record(self, direction: str, frame: Any) -> None:
        if len(self.frames) >= self.max_frames:
            self.truncated += 1
            return
        self.frames.append(
            CapturedFrame(
                when_ns=self._sim.now,
                direction=direction,
                size=frame.size,
                summary=describe_frame(frame),
                frame=frame,
            )
        )

    def _on_tx(self, frame: Any) -> None:
        self._record("tx", frame)
        self._inner_medium(frame)

    def _on_rx(self, frame: Any) -> None:
        self._record("rx", frame)
        if self._inner_rx is not None:
            self._inner_rx(frame)

    def stop(self) -> None:
        """Detach, restoring the NIC's original port sinks."""
        self.nic.tx_port.rebind(self._inner_medium)
        self.nic.rx_port.rebind(self._inner_rx)

    def matching(self, needle: str) -> list[CapturedFrame]:
        return [f for f in self.frames if needle in f.summary]

    def render(self, limit: Optional[int] = None) -> str:
        frames = self.frames[:limit] if limit else self.frames
        lines = [f.render() for f in frames]
        if self.truncated:
            lines.append(f"... {self.truncated} more frames not captured")
        return "\n".join(lines)
