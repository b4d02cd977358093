"""The IP stack: device binding, routing, softirq processing, sockets.

One :class:`Stack` instance models the networking stack of one OS image
— a native host, the Linux host under Palacios, or a guest inside a VM.
Devices are anything satisfying the small :class:`NetDevice` duck type
(physical NIC adapters, virtio NICs, IPoIB/IPoG pseudo-devices).

Cost accounting follows :class:`repro.config.HostStackParams`: per-packet
protocol costs plus a per-byte checksum/copy cost, charged in the
transmitting process (tx) and in the stack's softirq process (rx), so
that transmit, receive, and wire time pipeline naturally.
"""

from __future__ import annotations

from typing import Any, Optional, Protocol, runtime_checkable

from ..config import HostStackParams
from ..obs.context import Observability
from ..obs.span import (
    STAGE_ICMP_RX,
    STAGE_ICMP_TX,
    STAGE_SOCK_WAKE,
    STAGE_SOFTIRQ_WAKE,
    STAGE_TCP_RX,
    STAGE_UDP_RX,
    STAGE_UDP_TX,
)
from ..sim import Event, Signal, Simulator, Store
from ..sim.fluid import fluid_region_of
from .arp import ARP_REPLY, ARP_REQUEST, ETHERTYPE_ARP, ArpMessage, ArpTimeout
from .ethernet import BROADCAST_MAC, ETHERTYPE_IPV4, EthernetFrame
from .icmp import ICMP_ECHO_REPLY, ICMP_ECHO_REQUEST, ICMPMessage
from .ip import (
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    IPv4Packet,
    Reassembler,
    fragment,
)
from .tcp import TcpConnection, TcpListener, TcpSegment, TcpState
from .udp import UDPDatagram

__all__ = ["NetDevice", "Stack", "UdpSocket"]


@runtime_checkable
class NetDevice(Protocol):
    """What the stack needs from a network device."""

    mac: str
    mtu: int

    def send_blocking(self, frame: EthernetFrame):
        """Generator: enqueue for transmission, blocking on a full queue."""
        ...


class UdpSocket:
    """A bound UDP endpoint."""

    def __init__(self, stack: "Stack", port: int, in_kernel: bool = False):
        self.stack = stack
        self.port = port
        self.in_kernel = in_kernel
        self.rx: Store = Store(stack.sim, capacity=4096, name=f"udp:{port}")

    def sendto(self, payload: Any, dst_ip: str, dport: int):
        """Generator: send ``payload`` (object with .size) to (ip, port)."""
        stack = self.stack
        params = stack.params
        spans = stack.obs.spans
        span = spans.open(
            STAGE_UDP_TX, who=stack.name, where=stack.where, flow=f"{stack.ip}>{dst_ip}"
        ) if spans.enabled else None
        try:
            if not self.in_kernel:
                yield params.syscall_ns
            yield params.udp_tx_ns + params.checksum_ns(payload.size)
        finally:
            if span is not None:
                spans.close(span)
        dgram = UDPDatagram(sport=self.port, dport=dport, payload=payload)
        yield from stack.ip_send(dst_ip, PROTO_UDP, dgram)

    def recv(self):
        """Generator: wait for the next datagram; returns (payload, src_ip, sport)."""
        stack = self.stack
        params = stack.params
        blocked = not self.rx.items
        item = yield self.rx.get()
        if blocked:
            spans = stack.obs.spans
            span = spans.open(
                STAGE_SOCK_WAKE, who=stack.name, where=stack.where
            ) if spans.enabled else None
            try:
                yield params.sched_wakeup_ns
            finally:
                if span is not None:
                    spans.close(span)
        if not self.in_kernel:
            yield params.syscall_ns
        return item

    def deliver(self, dgram: UDPDatagram, src_ip: str) -> None:
        if not self.rx.try_put((dgram.payload, src_ip, dgram.sport)):
            self.stack.udp_dropped += 1


class Stack:
    """An OS network stack bound to one IP address."""

    COUNTERS = ("rx_dropped", "udp_dropped", "udp_unreachable", "proto_unknown")

    def __init__(
        self,
        sim: Simulator,
        params: HostStackParams,
        ip: str,
        name: str = "stack",
        role: str = "host",
    ):
        self.sim = sim
        self.params = params
        self.ip = ip
        self.name = name
        self.role = role
        self.where = "guest" if role == "guest" else "host"
        self.obs = Observability.of(sim)
        self.rx_dropped = self.udp_dropped = self.udp_unreachable = self.proto_unknown = 0
        self.obs.metrics.publish(f"proto.stack.{name}", self)
        self.devices: list[NetDevice] = []
        self._default_dev: Optional[NetDevice] = None
        self.neighbors: dict[str, str] = {}        # dst ip -> mac
        self.routes: dict[str, NetDevice] = {}     # dst ip -> device
        self._udp_socks: dict[int, UdpSocket] = {}
        self._tcp_conns: dict[tuple[int, str, int], TcpConnection] = {}
        self._tcp_listeners: dict[int, TcpListener] = {}
        self._ping_waiters: dict[tuple[int, int], Event] = {}
        self._reasm = Reassembler()
        self._rxq: Store = Store(sim, capacity=16384, name=f"{name}.rxq")
        self._ephemeral = 40000
        # Dynamic ARP (off by default: the paper's testbeds are statically
        # configured; see repro.proto.arp).
        self.arp_enabled = False
        self.arp_timeout_ns = 1_000_000_000  # 1 s per try, as Linux
        self.arp_retries = 3
        self._arp_pending: dict[str, Signal] = {}
        sim.process(self._softirq_loop(), name=f"{name}.softirq")

    # -- configuration -------------------------------------------------------
    def add_device(self, dev: NetDevice, default: bool = True) -> None:
        self.devices.append(dev)
        if default or self._default_dev is None:
            self._default_dev = dev

    def add_neighbor(self, ip: str, mac: str, dev: Optional[NetDevice] = None) -> None:
        """Static ARP entry (the testbeds use static configuration)."""
        self.neighbors[ip] = mac
        if dev is not None:
            self.routes[ip] = dev

    def route(self, dst_ip: str) -> tuple[NetDevice, str]:
        dev = self.routes.get(dst_ip, self._default_dev)
        if dev is None:
            raise RuntimeError(f"{self.name}: no device to reach {dst_ip}")
        mac = self.neighbors.get(dst_ip, BROADCAST_MAC)
        return dev, mac

    def ephemeral_port(self) -> int:
        self._ephemeral += 1
        return self._ephemeral

    # -- sockets ---------------------------------------------------------------
    def udp_socket(self, port: Optional[int] = None, in_kernel: bool = False) -> UdpSocket:
        if port is None:
            port = self.ephemeral_port()
        if port in self._udp_socks:
            raise ValueError(f"{self.name}: UDP port {port} already bound")
        sock = UdpSocket(self, port, in_kernel=in_kernel)
        self._udp_socks[port] = sock
        return sock

    def tcp_listen(
        self,
        port: int,
        in_kernel: bool = False,
        sndbuf: int = 256 * 1024,
        rcvbuf: int = 256 * 1024,
    ) -> TcpListener:
        if port in self._tcp_listeners:
            raise ValueError(f"{self.name}: TCP port {port} already listening")
        listener = TcpListener(self, port, in_kernel=in_kernel, sndbuf=sndbuf, rcvbuf=rcvbuf)
        self._tcp_listeners[port] = listener
        return listener

    def tcp_connect(
        self,
        dst_ip: str,
        dport: int,
        sndbuf: int = 256 * 1024,
        rcvbuf: int = 256 * 1024,
        in_kernel: bool = False,
    ):
        """Generator: active open; returns an ESTABLISHED TcpConnection."""
        conn = TcpConnection(
            self,
            local_port=self.ephemeral_port(),
            remote_ip=dst_ip,
            remote_port=dport,
            sndbuf=sndbuf,
            rcvbuf=rcvbuf,
            in_kernel=in_kernel,
        )
        self.register_tcp(conn)
        conn.state = TcpState.SYN_SENT
        if not in_kernel:
            yield self.params.syscall_ns
        # SYN with retransmission: handshake segments are lossy too.
        for _attempt in range(8):
            yield from conn._emit(syn=True, is_ack=False)
            timer = self.sim.timeout(conn.rto_ns)
            yield self.sim.any_of([timer, conn.established_event])
            if conn.established_event.triggered:
                return conn
        raise ConnectionError(f"{self.name}: connect to {dst_ip}:{dport} timed out")

    def register_tcp(self, conn: TcpConnection) -> None:
        key = (conn.local_port, conn.remote_ip, conn.remote_port)
        self._tcp_conns[key] = conn
        if not conn.in_kernel:
            # Hybrid fluid/packet mode: let the region probe this
            # connection for steady state (no-op when fluid is off).
            region = fluid_region_of(self.sim)
            if region is not None:
                region.watch(conn)

    # -- ping --------------------------------------------------------------------
    _ping_ident = 0

    def ping(self, dst_ip: str, data_size: int = 56):
        """Generator: one ICMP echo round trip; returns RTT in ns."""
        params = self.params
        Stack._ping_ident += 1
        ident, seq = Stack._ping_ident, 1
        start = self.sim.now
        spans = self.obs.spans
        span = spans.open(
            STAGE_ICMP_TX, who=self.name, where=self.where,
            flow=f"{self.ip}>{dst_ip}", packet=f"icmp:{ident}:{seq}",
        ) if spans.enabled else None
        try:
            yield params.syscall_ns + params.icmp_ns
        finally:
            if span is not None:
                spans.close(span)
        msg = ICMPMessage(ICMP_ECHO_REQUEST, ident, seq, data_size)
        waiter = self.sim.event()
        self._ping_waiters[(ident, seq)] = waiter
        yield from self.ip_send(dst_ip, PROTO_ICMP, msg)
        yield waiter
        yield params.sched_wakeup_ns + params.syscall_ns
        return self.sim.now - start

    # -- ARP ---------------------------------------------------------------------
    def resolve(self, dst_ip: str):
        """Generator: resolve ``dst_ip`` to a MAC via ARP (cache first).

        Raises :class:`ArpTimeout` after all retries go unanswered.
        """
        mac = self.neighbors.get(dst_ip)
        if mac is not None:
            return mac
        dev = self.routes.get(dst_ip, self._default_dev)
        if dev is None:
            raise RuntimeError(f"{self.name}: no device to resolve {dst_ip}")
        signal = self._arp_pending.get(dst_ip)
        if signal is None:
            signal = Signal(self.sim, f"arp:{dst_ip}")
            self._arp_pending[dst_ip] = signal
        for _attempt in range(self.arp_retries):
            request = ArpMessage(
                op=ARP_REQUEST,
                sender_ip=self.ip,
                sender_mac=dev.mac,
                target_ip=dst_ip,
            )
            frame = EthernetFrame(
                src=dev.mac, dst=BROADCAST_MAC, payload=request, ethertype=ETHERTYPE_ARP
            )
            yield from dev.send_blocking(frame)
            timer = self.sim.timeout(self.arp_timeout_ns)
            yield self.sim.any_of([timer, signal.wait()])
            mac = self.neighbors.get(dst_ip)
            if mac is not None:
                self._arp_pending.pop(dst_ip, None)
                return mac
        self._arp_pending.pop(dst_ip, None)
        raise ArpTimeout(f"{self.name}: no ARP reply for {dst_ip}")

    def _handle_arp(self, dev: NetDevice, msg: ArpMessage):
        # Every ARP packet teaches us the sender's binding (incl. gratuitous).
        self.neighbors[msg.sender_ip] = msg.sender_mac
        pending = self._arp_pending.get(msg.sender_ip)
        if pending is not None:
            pending.fire()
        if msg.op == ARP_REQUEST and msg.target_ip == self.ip and msg.sender_ip != self.ip:
            reply = ArpMessage(
                op=ARP_REPLY,
                sender_ip=self.ip,
                sender_mac=dev.mac,
                target_ip=msg.sender_ip,
                target_mac=msg.sender_mac,
            )
            frame = EthernetFrame(
                src=dev.mac, dst=msg.sender_mac, payload=reply, ethertype=ETHERTYPE_ARP
            )
            yield from dev.send_blocking(frame)

    # -- transmit path -------------------------------------------------------------
    def ip_send(self, dst_ip: str, proto: int, payload: Any):
        """Generator: wrap in IP (+fragment) and hand to the device."""
        if self.arp_enabled and dst_ip not in self.neighbors:
            yield from self.resolve(dst_ip)
        dev, dst_mac = self.route(dst_ip)
        pkt = IPv4Packet(src=self.ip, dst=dst_ip, proto=proto, payload=payload)
        frags = fragment(pkt, dev.mtu)
        if len(frags) > 1:
            yield 900 * (len(frags) - 1)  # fragmentation work
        for frag in frags:
            frame = EthernetFrame(src=dev.mac, dst=dst_mac, payload=frag)
            yield from dev.send_blocking(frame)

    def send_raw_frame(self, frame: EthernetFrame, dev: Optional[NetDevice] = None):
        """Generator: transmit a pre-built Ethernet frame (bridge direct send)."""
        dev = dev or self._default_dev
        if dev is None:
            raise RuntimeError(f"{self.name}: no device for raw send")
        yield from dev.send_blocking(frame)

    # -- receive path ----------------------------------------------------------------
    def rx_frame(self, dev: NetDevice, frame: EthernetFrame) -> None:
        """Device upcall: a frame is visible to host software."""
        if frame.dst != dev.mac and frame.dst != BROADCAST_MAC:
            return  # not ours
        if not self._rxq.try_put((dev, frame)):
            self.rx_dropped += 1

    def _softirq_loop(self):
        params = self.params
        spans = self.obs.spans
        while True:
            blocked = not self._rxq.items
            dev, frame = yield self._rxq.get()
            if blocked:
                span = spans.open(
                    STAGE_SOFTIRQ_WAKE, who=self.name, where=self.where
                ) if spans.enabled else None
                try:
                    yield params.softirq_wakeup_ns
                finally:
                    if span is not None:
                        spans.close(span)
            if frame.ethertype == ETHERTYPE_ARP:
                yield from self._handle_arp(dev, frame.payload)
                continue
            if frame.ethertype != ETHERTYPE_IPV4:
                continue
            pkt: IPv4Packet = frame.payload
            if pkt.dst != self.ip:
                continue
            if pkt.is_fragment:
                yield 1_100  # per-fragment reassembly work
                pkt = self._reasm.push(pkt)
                if pkt is None:
                    continue
            yield from self._deliver(pkt)

    def _deliver(self, pkt: IPv4Packet):
        params = self.params
        spans = self.obs.spans
        flow = f"{pkt.src}>{pkt.dst}" if spans.enabled else None
        if pkt.proto == PROTO_ICMP:
            msg: ICMPMessage = pkt.payload
            span = spans.open(
                STAGE_ICMP_RX, who=self.name, where=self.where,
                flow=flow, packet=f"icmp:{msg.ident}:{msg.seq}",
            ) if spans.enabled else None
            try:
                yield params.icmp_ns
            finally:
                if span is not None:
                    spans.close(span)
            yield from self._handle_icmp(pkt)
        elif pkt.proto == PROTO_UDP:
            dgram: UDPDatagram = pkt.payload
            span = spans.open(
                STAGE_UDP_RX, who=self.name, where=self.where, flow=flow
            ) if spans.enabled else None
            try:
                yield params.udp_rx_ns + params.checksum_ns(dgram.payload.size)
            finally:
                if span is not None:
                    spans.close(span)
            sock = self._udp_socks.get(dgram.dport)
            if sock is not None:
                sock.deliver(dgram, pkt.src)
            else:
                self.udp_unreachable += 1
        elif pkt.proto == PROTO_TCP:
            seg: TcpSegment = pkt.payload
            cost = params.tcp_rx_ns if seg.payload_bytes else params.tcp_ack_rx_ns
            span = spans.open(
                STAGE_TCP_RX, who=self.name, where=self.where, flow=flow
            ) if spans.enabled else None
            try:
                yield cost + params.checksum_ns(seg.payload_bytes)
            finally:
                if span is not None:
                    spans.close(span)
            key = (seg.dport, pkt.src, seg.sport)
            conn = self._tcp_conns.get(key)
            if conn is not None:
                conn.on_segment(seg, pkt.src)
            elif seg.syn and not seg.is_ack:
                listener = self._tcp_listeners.get(seg.dport)
                if listener is not None:
                    listener._on_syn(seg, pkt.src)
        else:
            self.proto_unknown += 1

    def _handle_icmp(self, pkt: IPv4Packet):
        msg: ICMPMessage = pkt.payload
        if msg.icmp_type == ICMP_ECHO_REQUEST:
            reply = ICMPMessage(ICMP_ECHO_REPLY, msg.ident, msg.seq, msg.data_size)
            yield from self.ip_send(pkt.src, PROTO_ICMP, reply)
        elif msg.icmp_type == ICMP_ECHO_REPLY:
            waiter = self._ping_waiters.pop((msg.ident, msg.seq), None)
            if waiter is not None and not waiter.triggered:
                waiter.succeed(self.sim.now)
