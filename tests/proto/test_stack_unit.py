"""Unit tests for Stack plumbing: sockets, routing, promiscuous mode."""

import pytest

from repro.config import NETEFFECT_10G, default_host
from repro.harness.testbed import build_native
from repro.host import Host
from repro.hw import Link
from repro.proto import Blob
from repro.proto.ethernet import BROADCAST_MAC
from repro.sim import Simulator


def make_pair():
    sim = Simulator()
    a = Host(sim, default_host(), NETEFFECT_10G, ip="10.0.0.1", name="a")
    b = Host(sim, default_host(), NETEFFECT_10G, ip="10.0.0.2", name="b")
    Link(sim, a.nic, b.nic)
    a.add_neighbor(b)
    b.add_neighbor(a)
    return sim, a, b


def test_udp_port_conflict_rejected():
    sim, a, b = make_pair()
    a.stack.udp_socket(port=53)
    with pytest.raises(ValueError, match="already bound"):
        a.stack.udp_socket(port=53)


def test_tcp_listen_conflict_rejected():
    sim, a, b = make_pair()
    a.stack.tcp_listen(80)
    with pytest.raises(ValueError, match="already listening"):
        a.stack.tcp_listen(80)


def test_ephemeral_ports_unique():
    sim, a, b = make_pair()
    ports = {a.stack.ephemeral_port() for _ in range(100)}
    assert len(ports) == 100


def test_route_requires_device():
    sim = Simulator()
    from repro.config import DEFAULT_STACK
    from repro.proto.stack import Stack

    lonely = Stack(sim, DEFAULT_STACK, ip="10.9.9.9")
    with pytest.raises(RuntimeError, match="no device"):
        lonely.route("10.0.0.1")


def test_unknown_neighbor_broadcasts():
    sim, a, b = make_pair()
    del a.stack.neighbors[b.ip]
    dev, mac = a.stack.route(b.ip)
    assert mac == BROADCAST_MAC


def test_udp_unreachable_port_counts():
    sim, a, b = make_pair()

    def tx():
        sock = a.stack.udp_socket()
        yield from sock.sendto(Blob(64), b.ip, 4242)

    p = sim.process(tx())
    sim.run(until=p)
    sim.run()
    metrics = b.stack.obs.metrics
    assert metrics.counter(f"proto.stack.{b.stack.name}.udp_unreachable").value == 1
    assert metrics.counter(f"proto.stack.{b.stack.name}.proto_unknown").value == 0


def test_concurrent_pings_do_not_cross_match():
    sim, a, b = make_pair()
    results = []

    def pinger():
        rtt = yield from a.stack.ping(b.ip, data_size=56)
        results.append(rtt)

    for _ in range(5):
        sim.process(pinger())
    sim.run()
    assert len(results) == 5
    assert all(r > 0 for r in results)


def test_socket_rx_overflow_drops():
    sim, a, b = make_pair()
    sock = b.stack.udp_socket(port=9)
    sock.rx.capacity = 2

    def tx():
        s = a.stack.udp_socket()
        for _ in range(5):
            yield from s.sendto(Blob(64), b.ip, 9)

    p = sim.process(tx())
    sim.run(until=p)
    sim.run()
    assert sock.dropped == 3
    assert len(sock.rx) == 2
