"""Tests for TCP-encapsulated overlay links (Sect. 4.5: 'TCP encapsulation
is also supported')."""

from repro.config import NETEFFECT_10G
from repro.harness.testbed import build_vnetp
from repro.proto.base import Blob
from repro.vnet.overlay import DestType, LinkProto, LinkSpec, RouteEntry


def make_tcp_overlay():
    """Rewire the standard two-node overlay to use TCP links A->B."""
    tb = build_vnetp(nic_params=NETEFFECT_10G)
    core_a, core_b = tb.cores
    # B accepts inbound TCP overlay connections on its bridge port.
    tb.hosts[1].vnet_bridge.accept_tcp_links()
    mac_b = tb.endpoints[1].vm.virtio_nics[0].mac
    core_a.routing.remove_matching(dst_mac=mac_b)
    core_a.add_link(
        LinkSpec(name="tcp-to-b", proto=LinkProto.TCP, dst_ip=tb.hosts[1].ip)
    )
    core_a.add_route(RouteEntry("any", mac_b, DestType.LINK, "tcp-to-b"))
    return tb


def test_tcp_link_carries_guest_traffic():
    tb = make_tcp_overlay()
    sim = tb.sim
    a, b = tb.endpoints
    got = []

    def rx():
        sock = b.stack.udp_socket(port=7)
        for _ in range(3):
            payload, src, _ = yield from sock.recv()
            got.append(payload.size)

    def tx():
        sock = a.stack.udp_socket()
        for size in (100, 2000, 8000):
            yield from sock.sendto(Blob(size), b.ip, 7)

    sim.process(rx())
    sim.process(tx())
    sim.run()
    assert got == [100, 2000, 8000]
    assert tb.hosts[0].vnet_bridge.encap_tx == 3


def test_tcp_link_reuses_one_connection():
    tb = make_tcp_overlay()
    sim = tb.sim
    a, b = tb.endpoints

    def tx():
        sock = a.stack.udp_socket()
        for _ in range(10):
            yield from sock.sendto(Blob(500), b.ip, 9)

    b.stack.udp_socket(port=9)
    p = sim.process(tx())
    sim.run(until=p)
    sim.run()
    bridge = tb.hosts[0].vnet_bridge
    assert len(bridge._tcp_links) == 1
