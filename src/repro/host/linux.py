"""Linux host-side device driver adapter.

Binds a :class:`~repro.hw.nic.PhysicalNIC` to a :class:`~repro.proto.stack.Stack`
as a :class:`~repro.proto.stack.NetDevice`.  The driver costs per frame are
carried by the NIC model (ring handling) and the stack model (softirq);
the adapter itself only moves frames.
"""

from __future__ import annotations

from typing import Optional

from ..hw.nic import PhysicalNIC
from ..proto.ethernet import EthernetFrame
from ..proto.stack import Stack
from ..sim import PacketStage

__all__ = ["EthernetDevice"]


class EthernetDevice(PacketStage):
    """NetDevice adapter over a physical NIC (the host's ethX)."""

    def __init__(self, nic: PhysicalNIC, mac: str, name: Optional[str] = None):
        self._init_stage(nic.sim, name or f"eth-{nic.name}")
        self.nic = nic
        self.mac = mac
        self.mtu = nic.params.max_mtu
        self.stack: Optional[Stack] = None
        nic.rx_port.connect(self._on_rx)

    def bind(self, stack: Stack, default: bool = True) -> None:
        self.stack = stack
        stack.add_device(self, default=default)

    def send_blocking(self, frame: EthernetFrame):
        """Generator: enqueue on the NIC, blocking while the tx ring is full."""
        if frame.payload_size > self.mtu:
            raise ValueError(
                f"{self.name}: frame payload {frame.payload_size} B > MTU {self.mtu}"
            )
        yield self.nic.txq.put(frame)

    def _on_rx(self, frame: EthernetFrame) -> None:
        if self.stack is not None:
            self.stack.rx_frame(self, frame)

    # PacketStage entry point (NIC rx port sink).
    ingress = _on_rx
