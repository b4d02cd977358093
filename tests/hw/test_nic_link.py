"""Unit tests for NIC, link, and switch models."""

import pytest

from repro.config import BROADCOM_1G, NETEFFECT_10G, NICParams
from repro.hw import Link, PhysicalNIC, Switch, SwitchParams
from repro.obs import Observability
from repro.proto import Blob, EthernetFrame
from repro.sim import Simulator
from repro import units


def frame(src, dst, size):
    return EthernetFrame(src=src, dst=dst, payload=Blob(size - 14))


def test_nic_serialization_time_dominates_large_frames():
    sim = Simulator()
    a = PhysicalNIC(sim, NETEFFECT_10G, name="a")
    b = PhysicalNIC(sim, NETEFFECT_10G, name="b")
    Link(sim, a, b)
    arrivals = []
    b.rx_port.connect(lambda f: arrivals.append(sim.now))
    a.send(frame("m1", "m2", 9014))
    sim.run()
    assert len(arrivals) == 1
    # ~7.2 us serialization + ring + propagation + interrupt delay
    assert 7 * units.US < arrivals[0] < 30 * units.US


def test_nic_back_to_back_frames_pipeline():
    sim = Simulator()
    a = PhysicalNIC(sim, NETEFFECT_10G, name="a")
    b = PhysicalNIC(sim, NETEFFECT_10G, name="b")
    Link(sim, a, b)
    arrivals = []
    b.rx_port.connect(lambda f: arrivals.append(sim.now))
    for _ in range(10):
        assert a.send(frame("m1", "m2", 9014))
    sim.run()
    assert len(arrivals) == 10
    # Inter-arrival spacing equals per-frame serialization (+ring), not the
    # full path latency: the pipe is full.
    gaps = [t2 - t1 for t1, t2 in zip(arrivals, arrivals[1:])]
    expected = NETEFFECT_10G.serialize_ns(9014) + NETEFFECT_10G.tx_ring_ns
    assert all(g == expected for g in gaps), gaps


def test_nic_mtu_enforced():
    sim = Simulator()
    nic = PhysicalNIC(sim, BROADCOM_1G, name="a")
    with pytest.raises(ValueError, match="MTU"):
        nic.send(frame("m1", "m2", 1600 + 14))


def test_nic_txq_tail_drop():
    sim = Simulator()
    params = NICParams(name="tiny", rate_bps=1e9, max_mtu=1500, tx_queue_frames=2)
    a = PhysicalNIC(sim, params, name="a")
    b = PhysicalNIC(sim, params, name="b")
    Link(sim, a, b)
    b.rx_port.connect(lambda f: None)
    results = [a.send(frame("m1", "m2", 1000)) for _ in range(5)]
    assert results.count(False) >= 1
    assert a.dropped_frames == results.count(False)
    sim.run()


def test_link_speed_mismatch_rejected():
    sim = Simulator()
    a = PhysicalNIC(sim, BROADCOM_1G, name="a")
    b = PhysicalNIC(sim, NETEFFECT_10G, name="b")
    with pytest.raises(ValueError, match="mismatch"):
        Link(sim, a, b)


def test_nic_double_attach_rejected():
    sim = Simulator()
    a = PhysicalNIC(sim, BROADCOM_1G, name="a")
    b = PhysicalNIC(sim, BROADCOM_1G, name="b")
    Link(sim, a, b)
    c = PhysicalNIC(sim, BROADCOM_1G, name="c")
    with pytest.raises(RuntimeError, match="already connected"):
        Link(sim, a, c)


def test_nic_byte_and_frame_counters():
    sim = Simulator()
    a = PhysicalNIC(sim, NETEFFECT_10G, name="a")
    b = PhysicalNIC(sim, NETEFFECT_10G, name="b")
    Link(sim, a, b)
    b.rx_port.connect(lambda f: None)
    a.send(frame("m1", "m2", 514))
    a.send(frame("m1", "m2", 1014))
    sim.run()
    assert a.tx_frames == 2 and a.tx_bytes == 514 + 1014
    assert b.rx_frames == 2 and b.rx_bytes == 514 + 1014


# --- switch ------------------------------------------------------------------

def build_star(n, nic_params=NETEFFECT_10G):
    sim = Simulator()
    switch = Switch(sim, SwitchParams(port_rate_bps=nic_params.rate_bps))
    nics = [PhysicalNIC(sim, nic_params, name=f"n{i}") for i in range(n)]
    for nic in nics:
        switch.attach(nic)
    return sim, switch, nics


def test_switch_floods_unknown_then_forwards_learned():
    sim, switch, nics = build_star(3)
    rx = {i: [] for i in range(3)}
    for i, nic in enumerate(nics):
        nic.rx_port.connect((lambda i: lambda f: rx[i].append(f))(i))

    # First frame from node0 to node1's (unknown) MAC floods to 1 and 2.
    nics[0].send(frame("mac0", "mac1", 500))
    sim.run()
    assert len(rx[1]) == 1 and len(rx[2]) == 1
    assert rx[0] == []  # never flooded back out of the ingress port

    # node1 replies; switch has learned mac0 -> port0.
    nics[1].send(frame("mac1", "mac0", 500))
    sim.run()
    assert len(rx[0]) == 1
    assert len(rx[1]) == 1  # unchanged: not sent back to the sender
    assert len(rx[2]) == 1  # unchanged: no flood this time


def test_switch_broadcast_goes_everywhere_except_ingress():
    sim, switch, nics = build_star(4)
    rx = {i: 0 for i in range(4)}
    for i, nic in enumerate(nics):
        def handler(f, i=i):
            rx[i] += 1
        nic.rx_port.connect(handler)
    nics[2].send(frame("mac2", Switch.BROADCAST, 300))
    sim.run()
    assert rx == {0: 1, 1: 1, 2: 0, 3: 1}


def test_switch_converging_flows_share_egress_port():
    """Two senders to one receiver: egress serialization halves each flow."""
    sim, switch, nics = build_star(3)
    arrivals = []
    nics[2].rx_port.connect(lambda f: arrivals.append((sim.now, f.src)))
    # Teach the switch where mac2 lives.
    nics[2].send(frame("mac2", Switch.BROADCAST, 100))
    sim.run()
    n = 20
    for _ in range(n):
        nics[0].send(frame("mac0", "mac2", 9014))
        nics[1].send(frame("mac1", "mac2", 9014))
    start = sim.now
    sim.run()
    arrivals = [a for a in arrivals if a[0] > start]
    assert len(arrivals) == 2 * n
    span = arrivals[-1][0] - arrivals[0][0]
    # 39 inter-arrivals at egress line rate ~ 7.2 us each.
    per_frame = units.tx_time_ns(9014 + 18, 10e9)
    assert span >= (2 * n - 1) * per_frame * 0.95


def test_switch_mixed_port_rates():
    """A 1G NIC on a 10G switch negotiates its port down to 1G."""
    sim = Simulator()
    switch = Switch(sim, SwitchParams(port_rate_bps=10e9))
    fast = PhysicalNIC(sim, NETEFFECT_10G, name="fast")
    slow = PhysicalNIC(sim, BROADCOM_1G, name="slow")
    switch.attach(fast)
    switch.attach(slow)
    arrivals = []
    slow.rx_port.connect(lambda f: arrivals.append(sim.now))
    fast.rx_port.connect(lambda f: None)
    # Teach the switch where "mslow" lives.
    slow.send(frame("mslow", Switch.BROADCAST, 100))
    sim.run()
    start = sim.now
    for _ in range(10):
        fast.send(frame("mfast", "mslow", 1014))
    sim.run()
    gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
    # Egress toward the slow NIC serializes at 1 Gbps: ~8.3 us per KB
    # frame, an order above the 10G rate.
    assert all(g > 7 * units.US for g in gaps), gaps


def _fast_into_slow(queue_frames):
    """Ten KB frames from a 10G NIC to a 1G NIC through one switch whose
    egress queues hold ``queue_frames``; returns (metrics, delivered)."""
    sim = Simulator()
    switch = Switch(sim, SwitchParams(port_rate_bps=10e9, port_queue_frames=queue_frames))
    fast = PhysicalNIC(sim, NETEFFECT_10G, name="fast")
    slow = PhysicalNIC(sim, BROADCOM_1G, name="slow")
    switch.attach(fast)
    switch.attach(slow)
    got = []
    slow.rx_port.connect(got.append)
    fast.rx_port.connect(lambda f: None)
    slow.send(frame("mslow", Switch.BROADCAST, 100))
    sim.run()
    for _ in range(10):
        fast.send(frame("mfast", "mslow", 1014))
    sim.run()
    return Observability.of(sim).metrics, len(got)


def test_switch_egress_overflow_is_counted():
    """A full egress queue drops the frame and counts it under the
    port's registry name; a switch that never drops publishes nothing."""
    metrics, delivered = _fast_into_slow(queue_frames=2)
    dropped = metrics.get("hw.switch.fujitsu-xg2000.port1.dropped")
    assert dropped is not None and dropped.value > 0
    assert delivered + dropped.value == 10

    metrics, delivered = _fast_into_slow(queue_frames=1024)
    assert delivered == 10
    assert [name for name in metrics.dump() if name.startswith("hw.switch.")] == []
