"""Integration tests of the VNET/P data path: modes, exits, delivery."""

import pytest

from repro.config import (
    BROADCOM_1G,
    NETEFFECT_10G,
    VnetMode,
    VnetTuning,
    default_tuning,
)
from repro.harness.testbed import build_vnetp
from repro.apps.ping import run_ping
from repro.apps.ttcp import run_ttcp_udp
from repro.proto.base import Blob
from repro import units


def test_guest_to_guest_udp_delivery():
    tb = build_vnetp(nic_params=NETEFFECT_10G)
    sim = tb.sim
    a, b = tb.endpoints
    got = []

    def rx():
        sock = b.stack.udp_socket(port=9999)
        payload, src, _ = yield from sock.recv()
        got.append((payload.size, src))

    def tx():
        sock = a.stack.udp_socket()
        yield from sock.sendto(Blob(4096), b.ip, 9999)

    sim.process(rx())
    sim.process(tx())
    sim.run()
    assert got == [(4096, a.ip)]


def test_encapsulation_traverses_host_network():
    """The inter-VM path must actually cross the physical NICs, carrying
    the 42-byte encapsulation overhead."""
    tb = build_vnetp(nic_params=NETEFFECT_10G)
    a, b = tb.endpoints
    run_ping(a, b, data_size=56, count=3)
    h0, h1 = tb.hosts
    assert h0.nic.tx_frames >= 3
    assert h1.nic.tx_frames >= 3
    # Encapsulated ICMP echo: inner 14 (eth) + 20 (ip) + 8 (icmp) + 56 data
    # = 98 B; outer adds IP+UDP = 28 -> wire payload 126 B.
    assert tb.hosts[0].vnet_bridge.encap_tx >= 3
    assert tb.hosts[1].vnet_bridge.encap_rx >= 3


def test_ping_stays_in_guest_driven_mode():
    """Sparse traffic must not trip the adaptive controller into
    VMM-driven mode."""
    tb = build_vnetp(nic_params=NETEFFECT_10G)
    a, b = tb.endpoints
    run_ping(a, b, count=30, interval_ns=5 * units.MS)
    for core in tb.cores:
        for ctl in core.controllers.values():
            assert ctl.mode is VnetMode.GUEST_DRIVEN
        assert core.guest_driven_dispatches > 0
        assert core.vmm_driven_dispatches == 0


def test_streaming_switches_to_vmm_driven_mode():
    tb = build_vnetp(nic_params=NETEFFECT_10G)
    a, b = tb.endpoints
    run_ttcp_udp(a, b, duration_ns=10 * units.MS)
    sender_core = tb.cores[0]
    ctl = next(iter(sender_core.controllers.values()))
    assert ctl.mode is VnetMode.VMM_DRIVEN
    assert ctl.switches >= 1
    assert sender_core.vmm_driven_dispatches > 0


def test_vmm_driven_mode_suppresses_kicks():
    """In VMM-driven mode the dispatcher polls, so the kick-exit count
    must be far below the packet count (the paper's central argument)."""
    tb = build_vnetp(nic_params=NETEFFECT_10G)
    a, b = tb.endpoints
    run_ttcp_udp(a, b, duration_ns=10 * units.MS)
    vmm = tb.hosts[0].vmm
    nic = tb.endpoints[0].vm.virtio_nics[0]
    assert nic.tx_packets > 1000
    assert vmm.exits_virtio_kick < nic.tx_packets / 2


def test_static_guest_driven_mode_kicks_every_packet():
    tuning = default_tuning(mode=VnetMode.GUEST_DRIVEN)
    tb = build_vnetp(nic_params=NETEFFECT_10G, tuning=tuning)
    a, b = tb.endpoints
    run_ttcp_udp(a, b, duration_ns=2 * units.MS)
    nic = tb.endpoints[0].vm.virtio_nics[0]
    assert nic.tx_kicks == nic.tx_packets


def test_static_modes_have_no_switches():
    for mode in (VnetMode.GUEST_DRIVEN, VnetMode.VMM_DRIVEN):
        tb = build_vnetp(nic_params=NETEFFECT_10G, tuning=default_tuning(mode=mode))
        a, b = tb.endpoints
        run_ttcp_udp(a, b, duration_ns=3 * units.MS)
        for core in tb.cores:
            for ctl in core.controllers.values():
                assert ctl.mode is mode
                assert ctl.switches == 0


def test_interrupt_batching_under_load():
    """Under streaming load the guest must rarely pay the full halted-VCPU
    wakeup: back-to-back interrupts find it still polling."""
    tb = build_vnetp(nic_params=NETEFFECT_10G)
    a, b = tb.endpoints
    run_ttcp_udp(a, b, duration_ns=10 * units.MS)
    rx_nic = b.vm.virtio_nics[0]
    assert rx_nic.rx_packets > 1000
    assert rx_nic.full_irq_wakeups < rx_nic.rx_packets / 10


def test_no_route_packets_dropped_not_crashed():
    tb = build_vnetp(nic_params=NETEFFECT_10G)
    a, b = tb.endpoints
    sim = tb.sim
    # Remove the route toward b's MAC on a's core.
    mac_b = b.vm.virtio_nics[0].mac
    tb.cores[0].routing.remove_matching(dst_mac=mac_b)

    def tx():
        sock = a.stack.udp_socket()
        yield from sock.sendto(Blob(100), b.ip, 9999)

    p = sim.process(tx())
    sim.run(until=p)
    sim.run()
    assert tb.cores[0].dropped_no_route == 1


def test_guest_ring_full_drop_counted_once():
    """A frame refused by a full guest ring is the NIC's rx_drops only;
    the core's dropped_ring_full is for its own dispatcher queue."""
    tb = build_vnetp(nic_params=NETEFFECT_10G)
    a, b = tb.endpoints
    sim = tb.sim
    nic_b = b.vm.virtio_nics[0]
    nic_b.rxq.capacity = 0

    def tx():
        sock = a.stack.udp_socket()
        yield from sock.sendto(Blob(100), b.ip, 9999)

    sim.process(tx())
    sim.run()
    assert nic_b.rx_drops == 1
    assert tb.cores[1].dropped_ring_full == 0


def test_broadcast_reaches_remote_guest():
    """A guest broadcast frame floods over every overlay link."""
    tb = build_vnetp(nic_params=NETEFFECT_10G)
    sim = tb.sim
    a, b = tb.endpoints
    # Remove b's neighbor entry so a's stack broadcasts the frame.
    a.stack.neighbors.pop(b.ip)
    got = []

    def rx():
        sock = b.stack.udp_socket(port=1234)
        payload, _, _ = yield from sock.recv()
        got.append(payload.size)

    def tx():
        sock = a.stack.udp_socket()
        yield from sock.sendto(Blob(64), b.ip, 1234)

    sim.process(rx())
    sim.process(tx())
    sim.run()
    assert got == [64]


def test_mtu_enforced_at_virtio_nic():
    tb = build_vnetp(nic_params=BROADCOM_1G)
    a, b = tb.endpoints
    nic = a.vm.virtio_nics[0]
    # 1500 - 42 encapsulation = 1458 guest MTU.
    assert nic.mtu == 1458


def test_guest_mtu_override_allows_fragmentation_path():
    """With an oversized guest MTU, encapsulated packets exceed the host
    MTU and the host stack fragments/reassembles them."""
    tb = build_vnetp(nic_params=BROADCOM_1G, guest_mtu=1500)
    a, b = tb.endpoints
    sim = tb.sim
    got = []

    def rx():
        sock = b.stack.udp_socket(port=7)
        payload, _, _ = yield from sock.recv()
        got.append(payload.size)

    def tx():
        sock = a.stack.udp_socket()
        # 1452 B payload -> guest IP packet 1480 -> inner frame 1494 ->
        # encapsulated outer IP packet 1522 > host MTU 1500.
        yield from sock.sendto(Blob(1452), b.ip, 7)

    sim.process(rx())
    sim.process(tx())
    sim.run()
    assert got == [1452]
    # The one datagram crossed the wire as two fragments, reassembled
    # into the delivery above.
    assert tb.hosts[0].nic.tx_frames == 2
    assert tb.hosts[1].nic.rx_frames == 2


def test_multiple_dispatchers_all_participate():
    tuning = default_tuning(n_dispatchers=3)
    tb = build_vnetp(nic_params=NETEFFECT_10G, tuning=tuning)
    a, b = tb.endpoints
    run_ttcp_udp(a, b, duration_ns=5 * units.MS)
    assert tb.cores[1].pkts_to_guest > 100


def test_core_stats_reflect_traffic():
    tb = build_vnetp(nic_params=NETEFFECT_10G)
    a, b = tb.endpoints
    run_ping(a, b, count=5)
    stats = tb.cores[0].stats()
    assert stats["pkts_from_guest"] == 5
    assert stats["pkts_to_guest"] == 5      # the replies
    assert stats["pkts_to_bridge"] == 5
    assert stats["dropped_no_route"] == 0
    assert stats["links"] == ["to1"]
    assert stats["interfaces"] == ["if0"]
    assert stats["modes"] == {"if0": "guest-driven"}
    assert 0.0 <= stats["routing_cache_hit_rate"] <= 1.0


@pytest.mark.parametrize("cut_through", [False, True])
def test_core_copies_are_charged_not_performed(cut_through):
    """Each frame a core dispatches costs one in-VMM copy of its size,
    counted in ``vnet.core.<host>.copied_bytes``, while the frame the
    far guest receives carries the very payload object that was sent."""
    tb = build_vnetp(nic_params=NETEFFECT_10G,
                     tuning=default_tuning(cut_through=cut_through))
    dispatched = {core.host.name: [] for core in tb.cores}
    for core in tb.cores:
        def tap(frame, *args, _dispatch=core._dispatch,
                _seen=dispatched[core.host.name]):
            _seen.append(frame)
            return _dispatch(frame, *args)

        core._dispatch = tap
    a, b = tb.endpoints
    run_ping(a, b, count=1)
    snap = tb.cores[0].obs.metrics.snapshot("vnet.core.")
    for host, frames in dispatched.items():
        assert len(frames) == 2  # the echo request and its reply
        assert snap[f"vnet.core.{host}.copied_bytes"] == sum(f.size for f in frames)
    (request, reply), (request_in, reply_in) = dispatched["h0"], dispatched["h1"]
    assert request_in.payload is request.payload
    assert reply.payload is reply_in.payload
