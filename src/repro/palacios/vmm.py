"""Palacios VMM model.

Palacios (Sect. 4.1) is modelled by what the data path pays it: VM
exits/entries, I/O-port handling, and interrupt injection, with exit
accounting so tests can assert on exit *counts* (the paper's central
performance argument is about eliminating exits).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..config import VMMParams, VirtioParams
from ..obs.context import Observability
from ..proto.stack import Stack
from ..sim import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from ..host.machine import Host
    from .virtio import VirtioNIC

__all__ = ["PalaciosVMM", "VirtualMachine"]


class PalaciosVMM:
    """The VMM instance embedded in a host's Linux kernel."""

    # VM exits on a virtio kick, the only exit the data path takes.
    COUNTERS = ("exits.virtio-kick",)

    def __init__(self, sim: Simulator, host: "Host"):
        self.sim = sim
        self.host = host
        self.params: VMMParams = host.params.vmm
        self.virtio_params: VirtioParams = host.params.virtio
        self.vms: list[VirtualMachine] = []
        self.obs = Observability.of(sim)
        self.exits_virtio_kick = 0
        self.obs.metrics.publish(f"palacios.{host.name}", self)
        host.vmm = self

    def create_vm(
        self,
        name: str,
        guest_ip: str,
        mem_mb: int = 1024,
    ) -> "VirtualMachine":
        vm = VirtualMachine(self, name, guest_ip, mem_mb=mem_mb)
        self.vms.append(vm)
        return vm


class VirtualMachine:
    """An application VM: guest OS stack plus virtio NICs.

    The guest runs an unmodified stack (the same :class:`Stack` model used
    natively — the paper uses identical kernels in both configurations,
    Sect. 5.1), bound to virtio devices instead of physical ones.
    """

    def __init__(
        self,
        vmm: PalaciosVMM,
        name: str,
        guest_ip: str,
        mem_mb: int = 1024,
    ):
        self.vmm = vmm
        self.sim = vmm.sim
        self.name = name
        self.guest_ip = guest_ip
        self.mem_mb = mem_mb
        self.stack = Stack(
            self.sim,
            vmm.host.params.stack,
            ip=guest_ip,
            name=f"{name}.gstack",
            role="guest",
        )
        self.virtio_nics: list["VirtioNIC"] = []

    def attach_virtio_nic(self, mac: str, mtu: int = 9000) -> "VirtioNIC":
        from .virtio import VirtioNIC

        nic = VirtioNIC(self, mac=mac, mtu=mtu)
        self.virtio_nics.append(nic)
        nic.bind(self.stack)
        return nic

    def __repr__(self) -> str:  # pragma: no cover
        return f"<VirtualMachine {self.name} ip={self.guest_ip}>"
