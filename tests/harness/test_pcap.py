"""Tests for the packet-capture utility."""

import pytest

from repro.apps.ping import run_ping
from repro.config import NETEFFECT_10G
from repro.harness.pcap import PacketCapture, describe_frame
from repro.harness.testbed import build_vnetp


def test_capture_sees_encapsulated_overlay_traffic():
    tb = build_vnetp(nic_params=NETEFFECT_10G)
    cap = PacketCapture(tb.hosts[0].nic)
    run_ping(tb.endpoints[0], tb.endpoints[1], count=3)
    # On the physical wire everything is VNET-encapsulated UDP.
    assert len(cap.frames) >= 6  # 3 requests out, 3 replies in
    vnet_frames = cap.matching("vnet[")
    assert len(vnet_frames) == len(cap.frames)
    # The inner protocol chain is visible through the encapsulation.
    assert cap.matching("icmp echo-request")
    assert cap.matching("icmp echo-reply")
    tx = [f for f in cap.frames if f.direction == "tx"]
    rx = [f for f in cap.frames if f.direction == "rx"]
    assert len(tx) == len(rx) == 3


def test_capture_summary_format():
    tb = build_vnetp(nic_params=NETEFFECT_10G)
    cap = PacketCapture(tb.hosts[0].nic)
    run_ping(tb.endpoints[0], tb.endpoints[1], count=1)
    line = cap.frames[0].render()
    assert "us tx" in line
    assert "eth " in line and "udp " in line


def test_capture_stop_restores_handlers():
    tb = build_vnetp(nic_params=NETEFFECT_10G)
    nic = tb.hosts[0].nic
    original_medium = nic.tx_port.sink
    original_rx = nic.rx_port.sink
    cap = PacketCapture(nic)
    cap.stop()
    assert nic.tx_port.sink is original_medium
    assert nic.rx_port.sink is original_rx


def test_capture_truncates_at_limit():
    tb = build_vnetp(nic_params=NETEFFECT_10G)
    cap = PacketCapture(tb.hosts[0].nic, max_frames=4)
    run_ping(tb.endpoints[0], tb.endpoints[1], count=5)
    assert len(cap.frames) == 4
    assert cap.truncated > 0
    assert "more frames" in cap.render()


def test_describe_frame_handles_tcp():
    from repro.proto.ethernet import EthernetFrame
    from repro.proto.ip import PROTO_TCP, IPv4Packet
    from repro.proto.tcp import TcpSegment

    seg = TcpSegment(sport=1000, dport=80, seq=5, ack=9, payload_bytes=100, syn=True)
    pkt = IPv4Packet(src="1.1.1.1", dst="2.2.2.2", proto=PROTO_TCP, payload=seg)
    frame = EthernetFrame(src="aa:00:00:00:00:01", dst="aa:00:00:00:00:02", payload=pkt)
    text = describe_frame(frame)
    assert "tcp 1000>80" in text
    assert "[S.]" in text
    assert "seq=5" in text
