"""Tests for the VNET/U user-level baseline daemon."""

import pytest

from repro import units
from repro.apps.ping import run_ping
from repro.apps.ttcp import run_ttcp_tcp
from repro.config import BROADCOM_1G
from repro.harness.testbed import build_vnetp, build_vnetu
from repro.obs import Observability
from repro.proto.base import Blob
from repro.vnet.control import ControlError
from repro.vnet.overlay import LinkProto, LinkSpec


def test_vnetu_guest_to_guest_delivery():
    tb = build_vnetu(nic_params=BROADCOM_1G)
    sim = tb.sim
    a, b = tb.endpoints
    got = []

    def rx():
        sock = b.stack.udp_socket(port=7)
        payload, src, _ = yield from sock.recv()
        got.append((payload.size, src))

    def tx():
        sock = a.stack.udp_socket()
        yield from sock.sendto(Blob(512), b.ip, 7)

    sim.process(rx())
    sim.process(tx())
    sim.run()
    assert got == [(512, a.ip)]
    # a's daemon encapsulated onto the wire; b's delivered into the guest.
    assert tb.hosts[0].nic.tx_frames >= 1
    assert b.vm.virtio_nics[0].rx_packets >= 1
    # Nothing dropped, so no daemon published a drop counter.
    dump = Observability.of(sim).metrics.dump()
    assert [name for name in dump if name.startswith("vnet.vnetu.")] == []


def test_vnetu_is_much_slower_than_vnetp():
    """The paper's core motivation: kernel/user transitions cap VNET/U."""
    tu = build_vnetu(nic_params=BROADCOM_1G)
    ru = run_ttcp_tcp(tu.endpoints[0], tu.endpoints[1], total_bytes=2 * units.MB)
    tp = build_vnetp(nic_params=BROADCOM_1G)
    rp = run_ttcp_tcp(tp.endpoints[0], tp.endpoints[1], total_bytes=2 * units.MB)
    assert rp.mbps > 1.3 * ru.mbps
    pu = run_ping(build_vnetu(nic_params=BROADCOM_1G).endpoints[0],
                  tu.endpoints[1], count=5) if False else None
    # Latency comparison on fresh testbeds.
    tu2 = build_vnetu(nic_params=BROADCOM_1G)
    lu = run_ping(tu2.endpoints[0], tu2.endpoints[1], count=10)
    tp2 = build_vnetp(nic_params=BROADCOM_1G)
    lp = run_ping(tp2.endpoints[0], tp2.endpoints[1], count=10)
    assert lu.avg_rtt_us > 3 * lp.avg_rtt_us


def test_vnetu_rejects_non_udp_links():
    tb = build_vnetu(nic_params=BROADCOM_1G)
    daemon = tb.daemons[0]
    with pytest.raises(ValueError, match="UDP"):
        daemon.add_link(LinkSpec(name="d", proto=LinkProto.DIRECT))


def test_vnetu_route_validation():
    from repro.vnet.overlay import DestType, RouteEntry

    tb = build_vnetu(nic_params=BROADCOM_1G)
    daemon = tb.daemons[0]
    with pytest.raises(ValueError, match="unknown link"):
        daemon.add_route(
            RouteEntry("any", "52:00:00:00:00:99", DestType.LINK, "nowhere")
        )


def test_vnetu_drops_unroutable_frames():
    tb = build_vnetu(nic_params=BROADCOM_1G)
    sim = tb.sim
    a, b = tb.endpoints
    # Remove the route to b on a's daemon.
    mac_b = b.vm.virtio_nics[0].mac
    tb.daemons[0].routing.remove_matching(dst_mac=mac_b)

    def tx():
        sock = a.stack.udp_socket()
        yield from sock.sendto(Blob(64), b.ip, 9)

    p = sim.process(tx())
    sim.run(until=p)
    sim.run()
    metrics = Observability.of(sim).metrics
    dropped = metrics.get(f"vnet.vnetu.{tb.hosts[0].name}.dropped_no_route")
    assert dropped is not None and dropped.value >= 1


def test_vnetu_tap_overflow_is_counted():
    """Frames kicked into a full tap queue are dropped and counted under
    the daemon's host name."""
    tb = build_vnetu(nic_params=BROADCOM_1G)
    sim = tb.sim
    a, b = tb.endpoints
    tb.daemons[0].tapq.capacity = 1

    def tx():
        sock = a.stack.udp_socket()
        for _ in range(20):
            yield from sock.sendto(Blob(1024), b.ip, 9)

    sim.process(tx())
    sim.run()
    metrics = Observability.of(sim).metrics
    dropped = metrics.get(f"vnet.vnetu.{tb.hosts[0].name}.dropped_tap_full")
    assert dropped is not None and dropped.value >= 1
    quiet = f"vnet.vnetu.{tb.hosts[1].name}."
    assert [name for name in metrics.dump() if name.startswith(quiet)] == []


def test_vnetu_guest_ring_full_drop_counted_once():
    """A frame refused by a full guest ring is the NIC's rx_drops only:
    the daemon publishes no drop counter of its own for it."""
    tb = build_vnetu(nic_params=BROADCOM_1G)
    sim = tb.sim
    a, b = tb.endpoints
    nic_b = b.vm.virtio_nics[0]
    nic_b.rxq.capacity = 0

    def tx():
        sock = a.stack.udp_socket()
        yield from sock.sendto(Blob(100), b.ip, 9)

    sim.process(tx())
    sim.run()
    assert nic_b.rx_drops == 1
    assert [n for n in Observability.of(sim).metrics.names("vnet.vnetu.")
            if n.endswith("ring_full")] == []


def test_vnetu_speaks_the_shared_config_language():
    tb = build_vnetu(nic_params=BROADCOM_1G)
    daemon, control = tb.daemons[0], tb.controls[0]
    assert control.node is daemon
    control.apply_config(
        """
        add link extra udp 10.0.0.9:5002
        add route src any dst 52:00:00:00:00:77 link extra
        """
    )
    assert "extra" in daemon.links
    listing = control.apply_config("list routes")
    assert any("52:00:00:00:00:77" in line for line in listing)
    control.apply_config("del route src any dst 52:00:00:00:00:77")
    with pytest.raises(ControlError, match="no route matches"):
        control.apply_config("del route src any dst 52:00:00:00:00:77")
