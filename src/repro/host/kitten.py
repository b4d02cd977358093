"""VNET/P for the Kitten lightweight kernel (Sect. 6.3, Fig. 17).

Kitten deliberately has a minimal set of in-kernel services, so the
bridge cannot live in the host kernel: it runs in a privileged service
VM (the **bridge VM**) with direct access to the physical InfiniBand
device.  Instead of UDP encapsulation, guest Ethernet frames are mapped
directly onto InfiniBand frames sent through a queue pair.

The guest-visible abstraction is identical to the Linux embedding: the
VNET/P core, virtio NICs, and routing are reused unchanged; only the
bridge component differs.  Each packet pays a VM crossing into/out of
the bridge VM plus a copy each way — which is why the Kitten data path
(4.0 Gbps) trails in-kernel expectations, while Kitten's low-noise
environment gives it very low jitter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..config import MELLANOX_IPOIB, HostParams, NICParams, VnetTuning
from ..hw.switch import SwitchParams
from ..proto.ethernet import BROADCAST_MAC, EthernetFrame
from ..sim import PacketStage, Simulator, Store
from ..vnet.core import VnetCore
from ..vnet.overlay import LinkProto

if TYPE_CHECKING:  # pragma: no cover
    from ..topo.compiler import Testbed
    from .machine import Host

__all__ = ["BridgeVMParams", "KittenBridgeVM", "build_vnetp_kitten"]


@dataclass(frozen=True)
class BridgeVMParams:
    """Costs of the service-VM bridge data path."""

    vm_crossing_ns: int = 2_100       # shared ring notify + exit/entry
    # Bridge-VM copies cross two address spaces (guest ring -> VMM ->
    # service VM), so the effective rate is well below a plain memcpy.
    copy_bw_Bps: float = 0.65e9
    ipoib_tx_ns: int = 2_000          # IPoIB framework send (queue pair post)
    ipoib_rx_ns: int = 2_200
    queue_frames: int = 4096


class KittenBridgeVM(PacketStage):
    """The privileged bridge VM: VNET/P core <-> InfiniBand queue pair.

    Presents the same ``txq`` interface the VNET/P core expects from a
    bridge, so the core is reused verbatim; frames are transmitted raw
    (mapped to IB frames), not UDP-encapsulated.
    """

    def __init__(
        self,
        sim: Simulator,
        host: "Host",
        core: VnetCore,
        params: Optional[BridgeVMParams] = None,
    ):
        self._init_stage(sim, f"{host.name}.bridgevm")
        self.host = host
        self.core = core
        self.params = params or BridgeVMParams()
        self.txq: Store = Store(sim, capacity=self.params.queue_frames, name=f"{self.name}.txq")
        self.rxq: Store = Store(sim, capacity=self.params.queue_frames, name=f"{self.name}.rxq")
        self.tx_frames = 0
        self.rx_frames = 0
        self.rx_dropped = 0
        core.attach_bridge(self)
        # The service VM has direct access to the IB device: it, not the
        # host stack, owns the NIC's receive port.
        host.nic.rx_port.rebind(self._on_ib_rx)
        sim.process(self._tx_loop(), name=f"{self.name}.tx")
        sim.process(self._rx_loop(), name=f"{self.name}.rx")

    def _copy_ns(self, nbytes: int) -> int:
        return int(round(nbytes * 1e9 / self.params.copy_bw_Bps))

    def _tx_loop(self):
        params = self.params
        while True:
            frame, link = yield self.txq.get()
            if link.proto is not LinkProto.DIRECT:
                raise ValueError(
                    f"{self.name}: Kitten bridge maps frames directly to IB "
                    f"frames; got a {link.proto.value} link"
                )
            # Cross into the bridge VM with the frame, then post it on the
            # InfiniBand queue pair.
            yield self.sim.timeout(
                params.vm_crossing_ns + self._copy_ns(frame.size) + params.ipoib_tx_ns
            )
            self.tx_frames += 1
            yield self.host.nic.txq.put(frame)

    def _on_ib_rx(self, frame: EthernetFrame) -> bool:
        # Accept only frames for local guests (or broadcasts).  Without
        # this MAC filter, switch flooding would be re-forwarded by every
        # non-target node's core, creating a storm.
        if frame.dst not in self.core.if_by_mac and frame.dst != BROADCAST_MAC:
            return True  # filtered, not backpressure
        if not self.rxq.try_put(frame):
            self.rx_dropped += 1
            return False
        return True

    # PacketStage entry point (IB NIC rx port sink).
    ingress = _on_ib_rx

    def _rx_loop(self):
        """Single bridge-VM thread: frames are processed in order."""
        params = self.params
        while True:
            frame = yield self.rxq.get()
            yield self.sim.timeout(
                params.ipoib_rx_ns + self._copy_ns(frame.size) + params.vm_crossing_ns
            )
            self.rx_frames += 1
            self.core.inbound.push(frame)


def build_vnetp_kitten(
    n_hosts: int = 2,
    nic_params: Optional[NICParams] = None,
    host_params: Optional[HostParams] = None,
    tuning: Optional[VnetTuning] = None,
    guest_mtu: int = 8958,
    sim: Optional[Simulator] = None,
) -> "Testbed":
    """Two (or more) Kitten nodes over InfiniBand, one guest VM each.

    Returns a Testbed whose endpoints are the guest stacks, as with the
    Linux builders.  The testbed's 8900-byte-payload ttcp measurement is
    the Sect. 6.3 experiment.
    """
    # Imported here: the topology compiler imports KittenBridgeVM.
    from ..topo import TopologyCompiler, full_mesh

    nic_params = nic_params or MELLANOX_IPOIB
    # Two nodes are cabled directly (the Sect. 6.3 testbed); more go
    # through an InfiniBand switch (Mellanox MTS3600-style).  The switch
    # forwards on the *guest* MACs, since Kitten's bridge VM maps guest
    # Ethernet frames directly onto IB frames.
    switch_params = None
    if n_hosts > 2:
        switch_params = SwitchParams(
            name="mellanox-mts3600", latency_ns=700, port_rate_bps=nic_params.rate_bps
        )
    compiler = TopologyCompiler(
        full_mesh(n_hosts, proto="direct", prefix="kitten"),
        nic_params=nic_params,
        host_params=host_params,
        tuning=tuning,
        switch_params=switch_params,
        guest_mtu=guest_mtu,
    )
    return compiler.compile().build(sim=sim, backend="kitten")
