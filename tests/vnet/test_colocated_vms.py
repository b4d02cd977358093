"""Tests for co-located VMs: the interface-to-interface fast path."""

from repro import units
from repro.apps.ping import run_ping
from repro.apps.ttcp import run_ttcp_tcp
from repro.config import NETEFFECT_10G
from repro.harness.testbed import build_vnetp
from repro.proto.base import Blob


def test_colocated_guests_communicate_without_the_wire():
    tb = build_vnetp(n_hosts=1, vms_per_host=2, nic_params=NETEFFECT_10G)
    sim = tb.sim
    a, b = tb.endpoints
    assert a.host is b.host
    got = []

    def rx():
        sock = b.stack.udp_socket(port=7)
        payload, src, _ = yield from sock.recv()
        got.append((payload.size, src))

    def tx():
        sock = a.stack.udp_socket()
        yield from sock.sendto(Blob(900), b.ip, 7)

    sim.process(rx())
    sim.process(tx())
    sim.run()
    assert got == [(900, a.ip)]
    # Nothing crossed the physical NIC or the bridge.
    assert tb.hosts[0].nic.tx_frames == 0
    assert tb.hosts[0].vnet_bridge.encap_tx == 0
    assert tb.cores[0].pkts_to_guest >= 1


def test_colocated_latency_beats_cross_host():
    local = build_vnetp(n_hosts=1, vms_per_host=2, nic_params=NETEFFECT_10G)
    r_local = run_ping(local.endpoints[0], local.endpoints[1], count=10)
    remote = build_vnetp(n_hosts=2, nic_params=NETEFFECT_10G)
    r_remote = run_ping(remote.endpoints[0], remote.endpoints[1], count=10)
    assert r_local.avg_rtt_us < r_remote.avg_rtt_us * 0.7


def test_mixed_local_and_remote_routing():
    """4 VMs on 2 hosts: local pairs short-circuit, remote pairs encapsulate."""
    tb = build_vnetp(n_hosts=2, vms_per_host=2, nic_params=NETEFFECT_10G)
    a0, a1, b0, b1 = tb.endpoints  # host-major order
    run_ping(a0, a1, count=3)      # co-located
    encap_before = tb.hosts[0].vnet_bridge.encap_tx
    assert encap_before == 0
    run_ping(a0, b0, count=3)      # cross-host
    assert tb.hosts[0].vnet_bridge.encap_tx >= 3


def test_colocated_tcp_throughput_exceeds_wire_rate():
    """The memory-to-memory path is not limited by the 10G wire."""
    tb = build_vnetp(n_hosts=1, vms_per_host=2, nic_params=NETEFFECT_10G)
    r = run_ttcp_tcp(tb.endpoints[0], tb.endpoints[1], total_bytes=20 * units.MB)
    assert r.gbps > 5.0
