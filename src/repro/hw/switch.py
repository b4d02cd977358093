"""Store-and-forward Ethernet switch (e.g. the Fujitsu XG2000 in Sect. 5.4).

The switch learns source addresses, forwards unicast frames out the
learned port, and floods unknown/broadcast destinations.  Every egress
port has its own serializer at the port rate, so simultaneous flows to
different destinations do not contend, while flows converging on one
port do — which is what drives ring-test contention in the HPCC
benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..obs.context import Observability
from ..sim import Port, Simulator, Store
from ..units import tx_time_ns
from .nic import PhysicalNIC

__all__ = ["SwitchParams", "Switch"]


@dataclass(frozen=True)
class SwitchParams:
    """Switch fabric characteristics."""

    name: str = "fujitsu-xg2000"
    latency_ns: int = 900          # fabric forwarding latency per frame
    port_rate_bps: float = 10e9
    port_queue_frames: int = 1024
    header_bytes: int = 18


class _Port:
    """One switch port: an egress queue plus serializer process."""

    COUNTERS = ("dropped",)

    def __init__(self, switch: "Switch", index: int, nic: PhysicalNIC):
        self.switch = switch
        self.index = index
        self.nic = nic
        sim = switch.sim
        self.egress: Store = Store(
            sim, capacity=switch.params.port_queue_frames, name=f"port{index}.egress"
        )
        # Fabric traversal is a latency-charged port push (no per-frame
        # process): the forwarding decision runs on arrival at the fabric
        # output, after the learning step on ingress — same ordering as a
        # store-and-forward lookup pipeline.
        self.fabric = Port(sim, f"{switch.params.name}.port{index}.fabric")
        self.dropped = 0
        switch.obs.metrics.publish(f"hw.switch.{switch.params.name}.port{index}", self)
        self.fabric.connect(self._fabric_arrive)
        sim.process(self._egress_loop(), name=f"{switch.params.name}.port{index}")
        nic.tx_port.connect(self._ingress)

    def _ingress(self, frame: Any) -> None:
        """Frame fully serialized by the attached NIC; hand to the fabric."""
        self.switch.fdb[frame.src] = self
        self.fabric.push_after(frame, self.switch.params.latency_ns)

    def _fabric_arrive(self, frame: Any) -> None:
        switch = self.switch
        dst_port = switch.fdb.get(frame.dst)
        if frame.dst == switch.BROADCAST or dst_port is None:
            for port in switch.ports:
                if port is not self:
                    port.enqueue(frame)
        else:
            dst_port.enqueue(frame)

    def enqueue(self, frame: Any) -> None:
        if not self.egress.try_put(frame):
            self.dropped += 1

    def _egress_loop(self):
        params = self.switch.params
        # Egress serializes at the attached device's line rate (switches
        # with mixed-speed ports negotiate per port), falling back to the
        # fabric port rate if it is lower.
        rate = min(self.nic.params.rate_bps, params.port_rate_bps)
        while True:
            frame = yield self.egress.get()
            yield tx_time_ns(frame.size + params.header_bytes, rate)
            yield self.nic.params.propagation_ns
            self.nic.deliver(frame)


class Switch:
    """A learning layer-2 switch connecting several NICs."""

    BROADCAST = "ff:ff:ff:ff:ff:ff"

    def __init__(
        self,
        sim: Simulator,
        params: Optional[SwitchParams] = None,
    ):
        self.sim = sim
        self.params = params or SwitchParams()
        self.ports: list[_Port] = []
        self.fdb: dict[Any, _Port] = {}   # forwarding database: addr -> port
        self.obs = Observability.of(sim)

    def attach(self, nic: PhysicalNIC) -> int:
        """Attach a NIC; returns the port index."""
        port = _Port(self, len(self.ports), nic)
        self.ports.append(port)
        return port.index
