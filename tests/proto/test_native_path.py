"""End-to-end tests of the native (non-virtualized) path: two hosts, one cable."""

import pytest

from repro.config import BROADCOM_1G, NETEFFECT_10G, default_host
from repro.hw import Link
from repro.proto import Blob
from repro.host import Host
from repro.sim import Simulator
from repro import units


def make_pair(nic_params):
    sim = Simulator()
    a = Host(sim, default_host("a"), nic_params, ip="10.0.0.1", name="a")
    b = Host(sim, default_host("b"), nic_params, ip="10.0.0.2", name="b")
    Link(sim, a.nic, b.nic)
    a.add_neighbor(b)
    b.add_neighbor(a)
    return sim, a, b


def test_ping_round_trip_completes():
    sim, a, b = make_pair(NETEFFECT_10G)

    def pinger(sim):
        rtt = yield from a.stack.ping(b.ip, data_size=56)
        return rtt

    p = sim.process(pinger(sim))
    rtt = sim.run(until=p)
    # Sanity band: native 10G small-packet RTT should be tens of us.
    assert 10 * units.US < rtt < 200 * units.US


def test_ping_rtt_grows_with_payload():
    sim, a, b = make_pair(BROADCOM_1G)

    def pinger(sim):
        small = yield from a.stack.ping(b.ip, data_size=64)
        large = yield from a.stack.ping(b.ip, data_size=1400)
        return small, large

    p = sim.process(pinger(sim))
    small, large = sim.run(until=p)
    # 1336 extra bytes at 1 Gbps ~ 10.7 us each way.
    assert large > small + 15 * units.US


def test_udp_send_receive():
    sim, a, b = make_pair(NETEFFECT_10G)
    received = []

    def receiver(sim):
        sock = b.stack.udp_socket(port=7)
        payload, src, sport = yield from sock.recv()
        received.append((payload.size, src))

    def sender(sim):
        sock = a.stack.udp_socket()
        yield sim.timeout(1000)
        yield from sock.sendto(Blob(1000), b.ip, 7)

    sim.process(receiver(sim))
    sim.process(sender(sim))
    sim.run()
    assert received == [(1000, a.ip)]


def test_udp_large_datagram_fragments_and_reassembles():
    sim, a, b = make_pair(NETEFFECT_10G)
    received = []

    def receiver(sim):
        sock = b.stack.udp_socket(port=9)
        payload, _, _ = yield from sock.recv()
        received.append(payload.size)

    def sender(sim):
        sock = a.stack.udp_socket()
        # 60 KB datagram over a 9000 B MTU: ~7 fragments.
        yield from sock.sendto(Blob(60_000), b.ip, 9)

    sim.process(receiver(sim))
    sim.process(sender(sim))
    sim.run()
    assert received == [60_000]


def test_tcp_connect_and_transfer():
    sim, a, b = make_pair(NETEFFECT_10G)
    result = {}

    def server(sim):
        listener = b.stack.tcp_listen(5001)
        conn = yield from listener.accept()
        total = yield from conn.drain()
        result["received"] = total

    def client(sim):
        conn = yield from a.stack.tcp_connect(b.ip, 5001)
        yield from conn.send(1_000_000)
        yield from conn.close()

    sim.process(server(sim))
    sim.process(client(sim))
    sim.run()
    assert result["received"] == 1_000_000


def test_tcp_throughput_near_line_rate_10g():
    sim, a, b = make_pair(NETEFFECT_10G)
    result = {}

    def server(sim):
        listener = b.stack.tcp_listen(5001)
        conn = yield from listener.accept()
        start = sim.now
        total = yield from conn.drain()
        result["rate_Bps"] = units.bytes_per_sec(total, sim.now - start)

    def client(sim):
        conn = yield from a.stack.tcp_connect(b.ip, 5001)
        yield from conn.send(20_000_000)
        yield from conn.close()

    sim.process(server(sim))
    sim.process(client(sim))
    sim.run()
    gbps = units.to_gbps(result["rate_Bps"])
    assert 8.0 < gbps < 10.0, f"native 10G TCP at {gbps:.2f} Gbps"


def test_tcp_throughput_near_line_rate_1g():
    sim, a, b = make_pair(BROADCOM_1G)
    result = {}

    def server(sim):
        listener = b.stack.tcp_listen(5001)
        conn = yield from listener.accept()
        start = sim.now
        total = yield from conn.drain()
        result["rate_Bps"] = units.bytes_per_sec(total, sim.now - start)

    def client(sim):
        conn = yield from a.stack.tcp_connect(b.ip, 5001)
        yield from conn.send(5_000_000)
        yield from conn.close()

    sim.process(server(sim))
    sim.process(client(sim))
    sim.run()
    mbps = units.to_mbps(result["rate_Bps"])
    assert 850 < mbps < 1000, f"native 1G TCP at {mbps:.1f} Mbps"


def test_tcp_retransmit_recovers_from_loss():
    sim, a, b = make_pair(NETEFFECT_10G)
    result = {}

    # Drop every 50th frame a sends, by wrapping the medium.
    original = a.nic.tx_port.sink
    counter = {"n": 0}

    def lossy(frame):
        counter["n"] += 1
        if counter["n"] % 50 == 0:
            return  # dropped on the wire
        original(frame)

    a.nic.tx_port.rebind(lossy)

    def server(sim):
        listener = b.stack.tcp_listen(5001)
        conn = yield from listener.accept()
        total = yield from conn.drain()
        result["received"] = total
        result["conn"] = conn

    def client(sim):
        conn = yield from a.stack.tcp_connect(b.ip, 5001)
        yield from conn.send(2_000_000)
        yield from conn.close()
        result["client"] = conn

    sim.process(server(sim))
    sim.process(client(sim))
    sim.run()
    assert result["received"] == 2_000_000
    assert result["client"].retransmits > 0
