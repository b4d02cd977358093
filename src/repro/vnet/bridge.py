"""The VNET/P bridge: host-kernel module between core and physical net
(Sect. 4.5).

Transmission modes (selected per packet by the routing directive the core
passes along):

* **encapsulated send** — the guest frame is wrapped in a UDP datagram and
  sent on the bridge's in-kernel socket to the destination VNET/P core,
  VNET/U daemon, or waypoint;
* **direct send** — the raw frame goes straight onto the local physical
  network (overlay exit point).

Reception is **encapsulated receive**: UDP datagrams (or TCP messages)
arriving on the VNET link port are unwrapped and handed to the core.
The paper's other receive mode, direct receive (a promiscuous host NIC
picking up raw frames for local guests), is not modelled: no testbed
in this reproduction enables it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..obs.context import Observability
from ..obs.span import STAGE_BRIDGE_TX, STAGE_DECAP, STAGE_ENCAP
from ..proto.ethernet import EthernetFrame
from ..sim import PacketStage, Simulator, Store
from ..sim.pipeline import Port
from .dispatcher import YieldState
from .encap import VnetEncap
from .overlay import DEFAULT_VNET_PORT, LinkProto, LinkSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..host.machine import Host
    from .core import VnetCore

__all__ = ["VnetBridge"]


def _accept_all(frame) -> bool:
    """Default sink of a per-link egress filter: everything passes."""
    return True


class VnetBridge(PacketStage):
    """Kernel-module bridge between a VNET/P core and the host network."""

    COUNTERS = ("encap_tx", "encap_rx", "direct_tx")

    def __init__(
        self,
        sim: Simulator,
        host: "Host",
        core: "VnetCore",
        port: int = DEFAULT_VNET_PORT,
    ):
        self._init_stage(sim, f"{host.name}.vbridge")
        self.host = host
        self.core = core
        self.costs = host.params.vnet_costs
        self.port = port
        # In-kernel UDP socket for encapsulated send/receive.
        self.sock = host.stack.udp_socket(port, in_kernel=True)
        self.txq: Store = Store(sim, capacity=8192, name=f"{self.name}.txq")
        self._tcp_links: dict[str, object] = {}
        # Per-link egress filter ports: synchronous predicate hand-off
        # points on the encapsulation path, created lazily by link_out().
        self._link_ports: dict[str, "Port"] = {}
        self.obs = Observability.of(sim)
        self.encap_tx = self.encap_rx = self.direct_tx = 0
        self.obs.metrics.publish(f"vnet.bridge.{host.name}", self)
        core.attach_bridge(self)
        # The bridge's send path parallelizes with the dispatcher count
        # (side-core offload of in-VMM processing beyond dispatch, Fig. 5).
        for i in range(core.tuning.n_dispatchers):
            sim.process(self._tx_loop(), name=f"{self.name}.tx{i}")
        sim.process(self._rx_loop(), name=f"{self.name}.rx")

    # -- per-link egress filters -------------------------------------------------
    def link_out(self, link_name: str) -> Port:
        """The egress filter port for one overlay link (lazily created).

        A timing-neutral predicate point on the encapsulation path: the
        port's default sink accepts everything and the clean path costs
        one dict lookup, but chaos injectors
        (:mod:`repro.chaos.stages`) can interpose on it to fault exactly
        one overlay link — the granularity overlay partitions happen at
        — without touching the shared physical NIC.  Drop-family
        injectors only; the sink is consulted mid-generator, so it must
        answer synchronously.
        """
        port = self._link_ports.get(link_name)
        if port is None:
            port = self.make_port(f"link.{link_name}")
            port.connect(_accept_all)
            self._link_ports[link_name] = port
        return port

    # -- transmit ----------------------------------------------------------------
    def _tx_loop(self):
        """Bridge thread: demultiplex on the link and transmit."""
        ystate = YieldState(self.sim, self.core.tuning, base_wakeup_ns=self.costs.idle_wakeup_ns)
        while True:
            blocked = not self.txq.items
            frame, link = yield self.txq.get()
            penalty = ystate.penalty(blocked)
            if blocked:
                penalty += self.host.wakeup_noise_ns()
            ystate.note_work()
            # The wakeup penalty is charged inside _transmit's span so the
            # recorded encap/bridge-tx stage matches the analytic "bridge
            # wakeup + tx + encap" stage.
            yield from self._transmit(frame, link, penalty)

    def _transmit(self, frame: EthernetFrame, link: LinkSpec, penalty: int = 0):
        spans = self.obs.spans
        if link.proto is LinkProto.DIRECT:
            span = spans.open(
                STAGE_BRIDGE_TX, who=self.name, where="host", flow_of=frame
            ) if spans.enabled else None
            try:
                yield penalty + self.costs.bridge_tx_ns
            finally:
                if span is not None:
                    spans.close(span)
            self.direct_tx += 1
            yield from self.host.stack.send_raw_frame(frame)
        elif link.proto is LinkProto.UDP:
            span = spans.open(
                STAGE_ENCAP, who=self.name, where="host", flow_of=frame
            ) if spans.enabled else None
            try:
                yield penalty + self.costs.bridge_tx_ns + self.costs.encap_ns
            finally:
                if span is not None:
                    spans.close(span)
            encap = VnetEncap(inner=frame, link_name=link.name)
            if not self.link_out(link.name).push(encap):
                return  # chaos filter dropped the datagram on this link
            self.encap_tx += 1
            yield from self.sock.sendto(encap, link.dst_ip, link.dst_port)
        elif link.proto is LinkProto.TCP:
            span = spans.open(
                STAGE_ENCAP, who=self.name, where="host", flow_of=frame
            ) if spans.enabled else None
            try:
                yield penalty + self.costs.bridge_tx_ns + self.costs.encap_ns
            finally:
                if span is not None:
                    spans.close(span)
            encap = VnetEncap(inner=frame, link_name=link.name)
            if not self.link_out(link.name).push(encap):
                return  # chaos filter dropped the message on this link
            self.encap_tx += 1
            channel = yield from self._tcp_link(link)
            yield from channel.send_message(encap, frame.size)
        else:  # pragma: no cover - enum is exhaustive
            raise ValueError(f"unknown link protocol {link.proto}")

    def _tcp_link(self, link: LinkSpec):
        """Generator: lazily establish the TCP stream for a TCP link."""
        channel = self._tcp_links.get(link.name)
        if channel is None:
            from ..proto.tcp import TcpMessageChannel

            conn = yield from self.host.stack.tcp_connect(
                link.dst_ip, link.dst_port, in_kernel=True
            )
            channel = TcpMessageChannel(conn)
            self._tcp_links[link.name] = channel
        return channel

    def accept_tcp_links(self) -> None:
        """Listen for inbound TCP-encapsulated overlay links."""
        listener = self.host.stack.tcp_listen(self.port, in_kernel=True)
        self.sim.process(self._tcp_accept_loop(listener), name=f"{self.name}.tcpaccept")

    def _tcp_accept_loop(self, listener):
        from ..proto.tcp import TcpMessageChannel

        while True:
            conn = yield from listener.accept()
            channel = TcpMessageChannel(conn)
            self.sim.process(self._tcp_rx_loop(channel), name=f"{self.name}.tcprx")

    def _tcp_rx_loop(self, channel):
        spans = self.obs.spans
        while True:
            encap = yield from channel.recv_message()
            span = spans.open(
                STAGE_DECAP, who=self.name, where="host", flow_of=encap.inner
            ) if spans.enabled else None
            try:
                yield self.costs.bridge_rx_ns + self.costs.decap_ns
            finally:
                if span is not None:
                    spans.close(span)
            self.encap_rx += 1
            self.core.inbound.push(encap.inner)

    # -- receive --------------------------------------------------------------------
    def _rx_loop(self):
        """Encapsulated receive: unwrap VNET UDP datagrams."""
        spans = self.obs.spans
        while True:
            payload, _src_ip, _sport = yield from self.sock.recv()
            if not isinstance(payload, VnetEncap):
                continue  # stray traffic on the link port
            span = spans.open(
                STAGE_DECAP, who=self.name, where="host", flow_of=payload.inner
            ) if spans.enabled else None
            try:
                yield self.costs.bridge_rx_ns + self.costs.decap_ns
            finally:
                if span is not None:
                    spans.close(span)
            self.encap_rx += 1
            self.core.inbound.push(payload.inner)
