"""Tests for testbed builders and flow-model calibration."""

import pytest

from repro.config import BROADCOM_1G, NETEFFECT_10G
from repro.harness.calibrate import calibrate_flow_model, clear_cache, flow_model_for
from repro.harness.testbed import (
    build_native,
    build_vnetp,
    build_vnetu,
    guest_mtu_for,
)
from repro.config import default_tuning


def test_native_pair_is_wired():
    tb = build_native(nic_params=NETEFFECT_10G)
    assert len(tb.hosts) == 2
    assert len(tb.endpoints) == 2
    assert tb.switch is None  # two hosts are directly cabled
    assert not tb.endpoints[0].is_virtual
    # Neighbors are configured both ways.
    assert tb.hosts[0].stack.neighbors[tb.hosts[1].ip] == tb.hosts[1].dev.mac


def test_three_native_hosts_get_a_switch():
    tb = build_native(n_hosts=3, nic_params=NETEFFECT_10G)
    assert tb.switch is not None
    assert len(tb.switch.ports) == 3


def test_vnetp_testbed_structure():
    tb = build_vnetp(nic_params=NETEFFECT_10G)
    assert len(tb.cores) == 2
    for ep in tb.endpoints:
        assert ep.is_virtual
        assert ep.vm.virtio_nics[0].registered
    core = tb.cores[0]
    # Full mesh: one link to the peer + 2 routes (peer link + local if).
    assert len(core.links) == 1
    assert len(core.routing) == 2
    assert core.bridge is not None


def test_vnetp_mesh_scales_with_hosts():
    tb = build_vnetp(n_hosts=4, nic_params=NETEFFECT_10G)
    for core in tb.cores:
        assert len(core.links) == 3
        assert len(core.routing) == 4


def test_identical_testbeds_get_identical_host_addresses():
    # Host MACs derive from host IPs, not from how many hosts the
    # process built before: pcap output and span flow ids depend on them.
    first, second = build_vnetp(), build_vnetp()
    macs = [[h.dev.mac for h in tb.hosts] for tb in (first, second)]
    assert macs[0] == macs[1] == ["52:00:00:00:00:01", "52:00:00:00:00:02"]


def test_guest_mtu_avoids_fragmentation():
    assert guest_mtu_for(BROADCOM_1G, default_tuning()) == 1458
    assert guest_mtu_for(NETEFFECT_10G, default_tuning()) == 8958
    # Explicit vnet_mtu smaller than physical wins.
    assert guest_mtu_for(NETEFFECT_10G, default_tuning(vnet_mtu=4000)) == 4000


def test_vnetu_testbed_structure():
    tb = build_vnetu(nic_params=BROADCOM_1G)
    assert len(tb.daemons) == len(tb.controls) == 2
    # Configured by the shared control plane from the compiled commands.
    for daemon, control, ch in zip(tb.daemons, tb.controls, tb.compiled.hosts):
        assert control.node is daemon
        assert tuple(daemon.links.values()) == ch.links
        assert tuple(daemon.routing.entries) == ch.routes
        assert len(daemon.links) == 1
        assert len(daemon.routing) == 2


def test_flow_model_cache_roundtrip():
    clear_cache()
    m1 = flow_model_for("native-10g")
    m2 = flow_model_for("native-10g")
    assert m1 is m2


def test_flow_model_unknown_config():
    with pytest.raises(KeyError, match="unknown configuration"):
        flow_model_for("native-100g")


def test_calibrated_models_are_ordered_sensibly():
    native = flow_model_for("native-10g")
    vnetp = flow_model_for("vnetp-10g")
    # VNET/P: higher latency, lower bandwidth, marked virtual.
    assert vnetp.alpha_ns > native.alpha_ns
    assert vnetp.beta_Bps < native.beta_Bps
    assert vnetp.virtual and not native.virtual
    # The ratios bracket the paper's: 2-3x latency, 75-90 % bandwidth.
    assert 1.8 < vnetp.alpha_ns / native.alpha_ns < 3.5
    assert 0.70 < vnetp.beta_Bps / native.beta_Bps < 0.95


def test_1g_models_are_wire_limited():
    n1 = flow_model_for("native-1g")
    v1 = flow_model_for("vnetp-1g")
    # Both sides saturate the 1G wire: betas within ~10 %.
    assert 0.90 < v1.beta_Bps / n1.beta_Bps <= 1.05
    # And neither is rx-path limited (so no fan-in penalty applies).
    assert not v1.rx_path_limited
