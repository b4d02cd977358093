"""Tests for overlay configuration validation."""

from repro.apps.ping import run_ping
from repro.config import NETEFFECT_10G
from repro.harness.testbed import build_vnetp
from repro.vnet.overlay import DestType, LinkProto, LinkSpec, RouteEntry
from repro.vnet.validation import validate_overlay


def test_healthy_mesh_validates_clean():
    tb = build_vnetp(n_hosts=3, nic_params=NETEFFECT_10G)
    report = validate_overlay(tb.cores)
    assert report.ok, report.render()
    # 3 cores x 2 remote MACs each.
    assert report.paths_checked == 6
    assert "OK" in report.render()


def test_missing_route_is_unreachable():
    tb = build_vnetp(n_hosts=2, nic_params=NETEFFECT_10G)
    mac_b = tb.endpoints[1].vm.virtio_nics[0].mac
    tb.cores[0].routing.remove_matching(dst_mac=mac_b)
    report = validate_overlay(tb.cores)
    assert not report.ok
    assert any(i.kind == "unreachable" for i in report.issues)


def test_waypoint_forwarding_validates():
    tb = build_vnetp(n_hosts=3, nic_params=NETEFFECT_10G)
    mac_b = tb.endpoints[1].vm.virtio_nics[0].mac
    core_a = tb.cores[0]
    core_a.routing.remove_matching(dst_mac=mac_b)
    core_a.add_route(RouteEntry("any", mac_b, DestType.LINK, "to2"))
    report = validate_overlay(tb.cores)
    assert report.ok, report.render()  # host 2 forwards onward


def test_forwarding_loop_detected():
    tb = build_vnetp(n_hosts=3, nic_params=NETEFFECT_10G)
    mac_b = tb.endpoints[1].vm.virtio_nics[0].mac
    # a -> c, and c -> a: a loop that never reaches b's host.
    tb.cores[0].routing.remove_matching(dst_mac=mac_b)
    tb.cores[0].add_route(RouteEntry("any", mac_b, DestType.LINK, "to2"))
    tb.cores[2].routing.remove_matching(dst_mac=mac_b)
    tb.cores[2].add_route(RouteEntry("any", mac_b, DestType.LINK, "to0"))
    report = validate_overlay(tb.cores)
    assert any(i.kind == "loop" for i in report.issues), report.render()


def test_dangling_link_detected():
    tb = build_vnetp(n_hosts=2, nic_params=NETEFFECT_10G)
    tb.cores[0].add_link(
        LinkSpec(name="nowhere", proto=LinkProto.UDP, dst_ip="10.0.0.250")
    )
    report = validate_overlay(tb.cores)
    assert any(i.kind == "dangling-link" for i in report.issues)


def test_misrouted_interface_is_black_hole():
    tb = build_vnetp(n_hosts=2, nic_params=NETEFFECT_10G)
    mac_b = tb.endpoints[1].vm.virtio_nics[0].mac
    # Host 0 claims b's MAC locally.
    tb.cores[0].routing.remove_matching(dst_mac=mac_b)
    tb.cores[0].add_route(RouteEntry("any", mac_b, DestType.INTERFACE, "if0"))
    report = validate_overlay(tb.cores)
    assert any(i.kind == "black-hole" for i in report.issues)



def test_validation_walks_from_each_guests_own_mac():
    """A route keyed on the guest's own source MAC is what the datapath
    uses; validation must walk with that MAC, not an invented one."""
    tb = build_vnetp(n_hosts=2, nic_params=NETEFFECT_10G)
    a, b = tb.endpoints
    mac_a = a.vm.virtio_nics[0].mac
    mac_b = b.vm.virtio_nics[0].mac
    tb.cores[0].routing.remove_matching(dst_mac=mac_b)
    tb.cores[0].add_route(RouteEntry(mac_a, mac_b, DestType.LINK, "to1"))
    report = validate_overlay(tb.cores)
    assert report.ok, report.render()
    assert run_ping(a, b, count=3).rtt_ns.n == 3
