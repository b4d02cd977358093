"""The overlay's one forwarding walk follows the datapath's decisions."""

from repro.apps.ping import run_ping
from repro.config import NETEFFECT_10G
from repro.harness.testbed import build_vnetp
from repro.vnet.node import MAX_HOPS, OverlayMap, WalkEnd
from repro.vnet.overlay import DestType, LinkProto, LinkSpec, RouteEntry


def _macs(tb):
    return [ep.vm.virtio_nics[0].mac for ep in tb.endpoints]


def _waypoint_mesh():
    """3-host mesh where a reaches b only through host 2."""
    tb = build_vnetp(n_hosts=3, nic_params=NETEFFECT_10G)
    mac_a, mac_b, _ = _macs(tb)
    tb.cores[0].routing.remove_matching(dst_mac=mac_b)
    tb.cores[0].add_route(RouteEntry("any", mac_b, DestType.LINK, "to2"))
    return tb


def test_walk_matches_the_cores_a_ping_moves_through():
    tb = _waypoint_mesh()
    a, b, _ = tb.endpoints
    mac_a, mac_b, _ = _macs(tb)
    run_ping(a, b, count=1)  # warm up: neighbour resolution, caches

    def counts():
        return [(c.pkts_to_bridge, c.pkts_to_guest) for c in tb.cores]

    before = counts()
    assert run_ping(a, b, count=1).rtt_ns.n == 1
    moved = [(b1 - b0, g1 - g0) for (b1, g1), (b0, g0) in zip(counts(), before)]

    overlay = OverlayMap(tb.cores)
    fwd = overlay.walk(mac_a, mac_b)
    rev = overlay.walk(mac_b, mac_a)
    assert fwd.nodes == [tb.cores[0], tb.cores[2], tb.cores[1]]
    assert rev.nodes == [tb.cores[1], tb.cores[0]]
    expected = [[0, 0] for _ in tb.cores]
    for walk in (fwd, rev):
        assert walk.end is WalkEnd.DELIVERED
        for node in walk.nodes[:-1]:
            expected[tb.cores.index(node)][0] += 1
        expected[tb.cores.index(walk.nodes[-1])][1] += 1
    assert moved == [tuple(e) for e in expected]
    assert fwd.nic is b.vm.virtio_nics[0]
    assert [link.name for link in fwd.links] == ["to2", "to1"]


def test_walk_ends():
    tb = build_vnetp(n_hosts=3, nic_params=NETEFFECT_10G)
    mac_a, mac_b, _ = _macs(tb)
    core_a = tb.cores[0]
    assert core_a.next_hop(mac_a, mac_b) is core_a.links["to1"]
    assert core_a.next_hop(mac_b, mac_a) is core_a.if_by_mac[mac_a]
    assert core_a.udp_link_to(tb.hosts[1].ip) == "to1"
    assert core_a.udp_link_to("10.0.0.250") is None
    assert OverlayMap(tb.cores).walk("02:ff:ff:ff:ff:ff", mac_b) is None

    core_a.routing.remove_matching(dst_mac=mac_b)
    walk = OverlayMap(tb.cores).walk(mac_a, mac_b)
    assert (walk.end, walk.nodes, walk.links) == (WalkEnd.NO_ROUTE, [core_a], [])

    for name, proto, dst_ip in (("out", LinkProto.DIRECT, ""),
                                ("nowhere", LinkProto.UDP, "10.0.0.250")):
        core_a.add_link(LinkSpec(name=name, proto=proto, dst_ip=dst_ip))
        core_a.routing.remove_matching(dst_mac=mac_b)
        core_a.add_route(RouteEntry("any", mac_b, DestType.LINK, name))
        walk = OverlayMap(tb.cores).walk(mac_a, mac_b)
        end = WalkEnd.DIRECT if proto is LinkProto.DIRECT else WalkEnd.DANGLING
        assert (walk.end, walk.nodes, [l.name for l in walk.links]) == (end, [core_a], [name])

    # a -> host 2 -> a: a loop that never reaches b's host.
    core_a.routing.remove_matching(dst_mac=mac_b)
    core_a.add_route(RouteEntry("any", mac_b, DestType.LINK, "to2"))
    tb.cores[2].routing.remove_matching(dst_mac=mac_b)
    tb.cores[2].add_route(RouteEntry("any", mac_b, DestType.LINK, "to0"))
    walk = OverlayMap(tb.cores).walk(mac_a, mac_b)
    assert walk.end is WalkEnd.LOOP
    assert len(walk.nodes) == MAX_HOPS

