"""Tests for dynamic ARP, natively and across the VNET/P overlay."""

import pytest

from repro.config import NETEFFECT_10G
from repro.harness.testbed import build_native, build_vnetp
from repro.proto.arp import ARP_REQUEST, ETHERTYPE_ARP, ArpMessage, ArpTimeout
from repro.proto.base import Blob
from repro.proto.ethernet import BROADCAST_MAC, EthernetFrame
from repro import units


def clear_neighbors(tb):
    for ep in tb.endpoints:
        ep.stack.neighbors.clear()
        ep.stack.arp_enabled = True


def test_arp_resolves_on_native_lan():
    tb = build_native(nic_params=NETEFFECT_10G)
    clear_neighbors(tb)
    a, b = tb.endpoints
    sim = tb.sim
    result = {}

    def resolver():
        mac = yield from a.stack.resolve(b.ip)
        result["mac"] = mac

    p = sim.process(resolver())
    sim.run(until=p)
    sim.run()
    assert result["mac"] == b.host.dev.mac
    # Only ARP crossed the wire: one request out of a, one reply out of b.
    assert a.host.nic.tx_frames == 1
    assert b.host.nic.tx_frames == 1
    # The reply also taught b about a (from the request).
    assert b.stack.neighbors[a.ip] == a.host.dev.mac


def test_arp_cache_avoids_repeat_requests():
    tb = build_native(nic_params=NETEFFECT_10G)
    clear_neighbors(tb)
    a, b = tb.endpoints
    sim = tb.sim

    def resolver():
        yield from a.stack.resolve(b.ip)
        yield from a.stack.resolve(b.ip)

    p = sim.process(resolver())
    sim.run(until=p)
    sim.run()
    assert a.host.nic.tx_frames == 1  # one request; the second hit the cache
    assert a.stack.neighbors[b.ip] == b.host.dev.mac


def test_arp_timeout_for_absent_host():
    tb = build_native(nic_params=NETEFFECT_10G)
    clear_neighbors(tb)
    a, _ = tb.endpoints
    sim = tb.sim
    a.stack.arp_timeout_ns = 1_000_000  # shorten for the test

    def resolver():
        yield from a.stack.resolve("10.0.0.99")

    p = sim.process(resolver())
    with pytest.raises(ArpTimeout):
        sim.run(until=p)
    assert a.host.nic.tx_frames == a.stack.arp_retries  # one request per try


def test_arp_works_across_the_overlay():
    """Guests on different hosts resolve each other through VNET/P's
    broadcast flooding — the 'simple LAN' abstraction in action."""
    tb = build_vnetp(nic_params=NETEFFECT_10G)
    clear_neighbors(tb)
    a, b = tb.endpoints
    sim = tb.sim
    got = []

    def app():
        sock_b = b.stack.udp_socket(port=7)

        def server():
            payload, src, _ = yield from sock_b.recv()
            got.append((payload.size, src))

        sim.process(server())
        sock = a.stack.udp_socket()
        # No neighbors configured: this triggers ARP over the overlay.
        yield from sock.sendto(Blob(777), b.ip, 7)

    p = sim.process(app())
    sim.run(until=p)
    sim.run()
    assert got == [(777, a.ip)]
    assert a.stack.neighbors[b.ip] == b.vm.virtio_nics[0].mac
    # The request crossed the overlay encapsulated.
    assert tb.hosts[0].vnet_bridge.encap_tx >= 2  # request + data


def test_gratuitous_arp_updates_peers():
    tb = build_native(nic_params=NETEFFECT_10G)
    clear_neighbors(tb)
    a, b = tb.endpoints
    sim = tb.sim
    dev = a.host.dev
    # An unsolicited who-has for our own IP, broadcast to the LAN.
    announce_msg = ArpMessage(
        op=ARP_REQUEST, sender_ip=a.ip, sender_mac=dev.mac, target_ip=a.ip
    )

    def announce():
        yield from dev.send_blocking(
            EthernetFrame(src=dev.mac, dst=BROADCAST_MAC, payload=announce_msg,
                          ethertype=ETHERTYPE_ARP)
        )

    p = sim.process(announce())
    sim.run(until=p)
    sim.run()
    assert b.stack.neighbors[a.ip] == a.host.dev.mac


def test_concurrent_resolves_share_one_exchange():
    tb = build_native(nic_params=NETEFFECT_10G)
    clear_neighbors(tb)
    a, b = tb.endpoints
    sim = tb.sim
    macs = []

    def resolver():
        mac = yield from a.stack.resolve(b.ip)
        macs.append(mac)

    procs = [sim.process(resolver()) for _ in range(4)]
    sim.run(until=sim.all_of(procs))
    sim.run()
    assert macs == [b.host.dev.mac] * 4
    # All four waited on the same pending exchange (within one timeout,
    # at most a couple of requests race out).
    assert a.host.nic.tx_frames <= 4
