"""Tests for the InfiniBand, Gemini, and Kitten substrates."""

import pytest

from repro import units
from repro.apps.ping import run_ping
from repro.apps.ttcp import run_ttcp_tcp
from repro.config import KITTEN_NOISE
from repro.host.kitten import KittenBridgeVM, build_vnetp_kitten
from repro.interconnect import (
    Torus3D,
    build_native_gemini,
    build_native_ipoib,
    build_vnetp_gemini,
    build_vnetp_ipoib,
    gemini_nic,
    ipoib_nic,
)


# --- torus geometry ------------------------------------------------------------

def test_torus_size_and_coords():
    t = Torus3D((5, 5, 2))
    assert t.size == 50
    assert t.coords(0) == (0, 0, 0)
    assert t.coords(49) == (4, 4, 1)
    with pytest.raises(ValueError):
        t.coords(50)


def test_torus_hops_wraparound():
    t = Torus3D((5, 5, 2))
    # Nodes 0 and 4 are adjacent through the x wraparound.
    assert t.hops(0, 4) == 1
    assert t.hops(0, 2) == 2
    assert t.hops(0, 0) == 0


def test_torus_mean_hops_reasonable():
    t = Torus3D((5, 5, 2))
    # Mean minimal distance on a 5x5x2 torus is ~2.9.
    assert 2.0 < t.mean_hops() < 4.0


def test_torus_rejects_bad_dims():
    with pytest.raises(ValueError):
        Torus3D((0, 5, 2))


def test_gemini_nic_propagation_reflects_torus():
    small = gemini_nic(Torus3D((2, 1, 1)))
    big = gemini_nic(Torus3D((8, 8, 4)))
    assert big.propagation_ns > small.propagation_ns


# --- IPoIB ---------------------------------------------------------------------

def test_ipoib_device_parameters():
    nic = ipoib_nic()
    assert nic.max_mtu == 65520
    assert nic.header_bytes > 18  # IPoIB encapsulation exceeds Ethernet


def test_ipoib_native_beats_vnetp():
    tn = build_native_ipoib()
    rn = run_ttcp_tcp(tn.endpoints[0], tn.endpoints[1], total_bytes=8 * units.MB)
    tv = build_vnetp_ipoib()
    rv = run_ttcp_tcp(tv.endpoints[0], tv.endpoints[1], total_bytes=8 * units.MB)
    assert rn.gbps > rv.gbps > 1.0


def test_ipoib_tuned_beats_untuned():
    untuned = build_vnetp_ipoib()
    ru = run_ttcp_tcp(untuned.endpoints[0], untuned.endpoints[1], total_bytes=8 * units.MB)
    tuned = build_vnetp_ipoib(tuned=True)
    rt = run_ttcp_tcp(tuned.endpoints[0], tuned.endpoints[1], total_bytes=8 * units.MB)
    assert rt.gbps > ru.gbps


# --- Gemini --------------------------------------------------------------------

def test_gemini_vnetp_end_to_end():
    tb = build_vnetp_gemini()
    ping = run_ping(tb.endpoints[0], tb.endpoints[1], count=10)
    assert ping.rtt_ns.n == 10
    # The large VNET MTU is configured by default.
    assert tb.endpoints[0].vm.virtio_nics[0].mtu > 60_000


def test_gemini_native_faster_than_vnetp():
    tn = build_native_gemini()
    rn = run_ttcp_tcp(tn.endpoints[0], tn.endpoints[1], total_bytes=20 * units.MB,
                      sndbuf=4 * units.MB, rcvbuf=4 * units.MB)
    tv = build_vnetp_gemini()
    rv = run_ttcp_tcp(tv.endpoints[0], tv.endpoints[1], total_bytes=20 * units.MB,
                      sndbuf=4 * units.MB, rcvbuf=4 * units.MB)
    assert rn.gbps > rv.gbps


# --- Kitten --------------------------------------------------------------------

def test_kitten_testbed_structure():
    tb = build_vnetp_kitten()
    assert len(tb.endpoints) == 2
    for host in tb.hosts:
        assert isinstance(host.vnet_bridge, KittenBridgeVM)
        assert host.params.noise == KITTEN_NOISE
    # Compiled and configured like every other overlay testbed: one
    # control per host applied that host's compiled commands.
    assert tb.compiled is not None
    assert [h.name for h in tb.hosts] == ["kitten0", "kitten1"]
    for core, control, ch in zip(tb.cores, tb.controls, tb.compiled.hosts, strict=True):
        assert control.node is core
        assert tuple(core.links.values()) == ch.links
        assert tuple(core.routing.entries) == ch.routes
    # No Linux host stack on the data path: frames go straight from the
    # bridge VM to the IB NIC (direct links, not UDP).
    for core in tb.cores:
        for link in core.links.values():
            assert link.proto.value == "direct"


def test_kitten_guest_to_guest_udp():
    from repro.proto.base import Blob

    tb = build_vnetp_kitten()
    sim = tb.sim
    a, b = tb.endpoints
    got = []

    def rx():
        sock = b.stack.udp_socket(port=5)
        payload, src, _ = yield from sock.recv()
        got.append((payload.size, src))

    def tx():
        sock = a.stack.udp_socket()
        yield from sock.sendto(Blob(2048), b.ip, 5)

    sim.process(rx())
    sim.process(tx())
    sim.run()
    assert got == [(2048, a.ip)]
    assert tb.hosts[0].vnet_bridge.tx_frames >= 1
    assert tb.hosts[1].vnet_bridge.rx_frames >= 1


def test_kitten_bridge_vm_rejects_udp_links():
    from repro.proto.base import Blob
    from repro.vnet.overlay import LinkProto, LinkSpec

    tb = build_vnetp_kitten()
    bridge = tb.hosts[0].vnet_bridge
    sim = tb.sim
    bad = LinkSpec(name="x", proto=LinkProto.UDP, dst_ip="10.0.0.9")
    from repro.proto.ethernet import EthernetFrame

    a, b = (ep.vm.virtio_nics[0].mac for ep in tb.endpoints)
    frame = EthernetFrame(src=a, dst=b, payload=Blob(64))
    bridge.txq.try_put((frame, bad))
    with pytest.raises(ValueError, match="directly to IB"):
        sim.run()


def test_kitten_multi_node_via_ib_switch():
    """Three Kitten nodes communicate through an IB switch that forwards
    on the guest MACs carried in the directly-mapped frames."""
    from repro.proto.base import Blob

    tb = build_vnetp_kitten(n_hosts=3)
    assert tb.switch is not None
    sim = tb.sim
    a, b, c = tb.endpoints
    got = []

    def rx(ep, port):
        sock = ep.stack.udp_socket(port=port)
        payload, src, _ = yield from sock.recv()
        got.append((ep.ip, payload.size, src))

    def tx(src, dst, port, size):
        sock = src.stack.udp_socket()
        yield from sock.sendto(Blob(size), dst.ip, port)

    sim.process(rx(b, 5))
    sim.process(rx(c, 6))
    sim.process(tx(a, b, 5, 1000))
    sim.process(tx(a, c, 6, 2000))
    sim.run()
    assert sorted(got) == sorted(
        [(b.ip, 1000, a.ip), (c.ip, 2000, a.ip)]
    )
