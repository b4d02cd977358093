"""VNET/U: the user-level overlay daemon baseline (Sect. 3).

VNET/U implements the same overlay model as VNET/P but as a user-space
daemon: every guest packet crosses the kernel/user boundary several
times (guest -> VMM -> host tap device -> daemon -> host socket, and the
mirror image on receive), each crossing paying a context transition and
a copy, plus select()-style dispatch in the daemon.  Those transitions
are exactly what VNET/P eliminates, and what limits VNET/U to ~71 MB/s
and ~0.88 ms latency on the paper's hardware.

The daemon shares VNET/P's node state (:class:`~repro.vnet.node.VnetNode`)
and is configured by the same control component
(:class:`~repro.vnet.control.VnetControl`); it listens on VNET/P's UDP
port, so the two systems speak compatible configuration languages and
encapsulation (Sect. 4.2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..proto.ethernet import BROADCAST_MAC, EthernetFrame
from ..sim import Simulator, Store
from .encap import VnetEncap
from .node import VnetNode
from .overlay import DEFAULT_VNET_PORT, DestType, InterfaceSpec, LinkProto, LinkSpec
from .routing import NoRouteError, RoutingTable

if TYPE_CHECKING:  # pragma: no cover
    from ..host.machine import Host
    from ..palacios.virtio import VirtioNIC

__all__ = ["VnetUDaemon"]


class VnetUDaemon(VnetNode):
    """User-level VNET daemon on one host."""

    def __init__(self, sim: Simulator, host: "Host"):
        self.sim = sim
        self.host = host
        self.params = host.params.vnetu
        self.name = f"{host.name}.vnetu"
        self._init_node(RoutingTable(host.params.vnet_costs, cache_enabled=True))
        # The tap device queue between the VMM and the daemon.
        self.tapq: Store = Store(sim, capacity=8192, name=f"{self.name}.tapq")
        # User-level socket: syscalls charged on every send/recv.
        self.sock = host.stack.udp_socket(DEFAULT_VNET_PORT, in_kernel=False)
        self.pkts_routed = 0
        self.pkts_dropped = 0
        sim.process(self._tx_loop(), name=f"{self.name}.tx")
        sim.process(self._rx_loop(), name=f"{self.name}.rx")

    # -- configuration ---------------------------------------------------------
    def add_link(self, link: LinkSpec) -> None:
        if link.proto is not LinkProto.UDP:
            raise ValueError(f"{self.name}: VNET/U links are UDP (got {link.proto})")
        super().add_link(link)

    def register_interface(self, spec: InterfaceSpec, nic: "VirtioNIC") -> None:
        super().register_interface(spec, nic)
        nic.register_backend(self._kick_handler)

    # -- data path ---------------------------------------------------------------
    def _kick_handler(self, nic: "VirtioNIC"):
        """VM-exit handler: shove guest frames through the host tap device.

        Charged in guest context: one kernel/user-bound copy into the tap
        plus the transition the VMM pays to signal it.
        """
        params = self.params
        while True:
            frame = nic.txq.try_get()
            if frame is None:
                break
            yield self.sim.timeout(
                params.transition_ns + self._copy_ns(frame.size)
            )
            if not self.tapq.try_put(frame):
                self.pkts_dropped += 1

    def _copy_ns(self, nbytes: int) -> int:
        return int(round(nbytes * 1e9 / self.params.copy_bw_Bps))

    def _daemon_work_ns(self, nbytes: int) -> int:
        """Per-packet user-level cost: transitions, select dispatch,
        routing/encapsulation at user level, and the remaining copies."""
        params = self.params
        return (
            (params.transitions_per_packet - 1) * params.transition_ns
            + params.select_overhead_ns
            + params.daemon_process_ns
            + (params.copies_per_packet - 1) * self._copy_ns(nbytes)
        )

    def _tx_loop(self):
        """Daemon: read tap, route, encapsulate, send on the UDP socket."""
        params = self.params
        while True:
            blocked = len(self.tapq) == 0
            frame = yield self.tapq.get()
            if blocked:
                # Daemon was asleep; pay user-process scheduling latency.
                yield self.sim.timeout(params.sched_latency_ns)
            yield self.sim.timeout(self._daemon_work_ns(frame.size))
            try:
                entry, _ = self.routing.lookup(frame.src, frame.dst)
            except NoRouteError:
                self.pkts_dropped += 1
                continue
            self.pkts_routed += 1
            if entry.dest_type is DestType.INTERFACE:
                yield from self._deliver_local(frame, self.interfaces[entry.dest_name])
            else:
                link = self.links[entry.dest_name]
                encap = VnetEncap(inner=frame, link_name=link.name)
                yield from self.sock.sendto(encap, link.dst_ip, link.dst_port)

    def _rx_loop(self):
        """Daemon: receive encapsulated packets, deliver into the guest."""
        params = self.params
        while True:
            blocked = len(self.sock.rx) == 0
            payload, _src, _sport = yield from self.sock.recv()
            if not isinstance(payload, VnetEncap):
                continue
            if blocked:
                # Daemon was asleep; pay user-process scheduling latency
                # (amortised away under streaming load).
                yield self.sim.timeout(params.sched_latency_ns)
            frame = payload.inner
            yield self.sim.timeout(self._daemon_work_ns(frame.size))
            nic = self.if_by_mac.get(frame.dst)
            if nic is None and frame.dst != BROADCAST_MAC:
                self.pkts_dropped += 1
                continue
            targets = (
                list(self.if_by_mac.values()) if nic is None else [nic]
            )
            for target in targets:
                yield from self._deliver_local(frame, target)

    def _deliver_local(self, frame: EthernetFrame, nic: "VirtioNIC"):
        """Daemon -> VMM ioctl -> guest RXQ + interrupt."""
        params = self.params
        yield self.sim.timeout(params.transition_ns + self._copy_ns(frame.size))
        if nic.deliver_to_guest(frame):
            self.pkts_routed += 1
            nic.raise_irq()
        else:
            self.pkts_dropped += 1

