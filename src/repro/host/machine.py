"""A physical machine: memory, NIC, and the host OS stack."""

from __future__ import annotations

from ipaddress import IPv4Address
from typing import Optional

from ..config import HostParams, NICParams
from ..hw.memory import MemorySystem
from ..hw.nic import PhysicalNIC
from ..proto.ethernet import mac_addr
from ..proto.stack import Stack
from ..sim import RandomStreams, Simulator
from ..sim.rng import Rng
from .linux import EthernetDevice

__all__ = ["Host"]


class Host:
    """One physical machine running Linux (optionally hosting Palacios).

    Construction wires: PhysicalNIC <-> EthernetDevice <-> host Stack.
    The topology builder attaches the NIC to a link or a switch, and
    fills in neighbor tables.  The host's MAC (and, when unnamed, its
    name) derive from the low 24 bits of its IP, so identical testbeds
    get identical addresses whatever was built before them.
    """

    def __init__(
        self,
        sim: Simulator,
        params: HostParams,
        nic_params: NICParams,
        ip: str,
        name: Optional[str] = None,
    ):
        index = int(IPv4Address(ip)) & 0xFFFFFF
        self.sim = sim
        self.params = params
        self.ip = ip
        self.name = name or f"host{index}"
        self.memory = MemorySystem(sim, params.memory, name=f"{self.name}.mem")
        self.nic = PhysicalNIC(sim, nic_params, name=f"{self.name}.nic")
        self.dev = EthernetDevice(self.nic, mac=mac_addr(index), name=f"{self.name}.eth0")
        self.stack = Stack(sim, params.stack, ip=ip, name=f"{self.name}.stack")
        self.dev.bind(self.stack)
        # The OS-noise stream is seeded on its first draw (_noise_rng):
        # most hosts of a large testbed never draw.
        self._noise_stream: Optional[Rng] = None
        # Populated when a VM / VNET components are instantiated on this host.
        self.vmm = None
        self.vnet_core = None
        self.vnet_bridge = None

    @property
    def _noise_rng(self) -> Rng:
        """The OS-noise stream.  Seeded by name (not creation order) so
        identical testbeds built in one process behave identically —
        determinism tests rely on it."""
        rng = self._noise_stream
        if rng is None:
            rng = self._noise_stream = RandomStreams(seed=0).stream(f"{self.name}.noise")
        return rng

    def wakeup_noise_ns(self) -> int:
        """One sample of OS scheduling noise (Linux: up to a few us)."""
        jitter = self.params.noise.jitter_max_ns
        if jitter <= 0:
            return 0
        return self._noise_rng.integers(0, jitter + 1)

    def add_neighbor(self, other: "Host") -> None:
        """Static ARP entry for a peer host on the same L2 segment."""
        self.stack.add_neighbor(other.ip, other.dev.mac, self.dev)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Host {self.name} ip={self.ip}>"
