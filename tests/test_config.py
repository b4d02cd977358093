"""Tests for configuration dataclasses and named hardware."""

import dataclasses

import pytest

from repro import config


def test_named_nics_are_consistent():
    assert config.BROADCOM_1G.rate_bps == 1e9
    assert config.NETEFFECT_10G.rate_bps == 10e9
    assert config.BROADCOM_1G.max_mtu == 1500
    assert config.NETEFFECT_10G.max_mtu == 9000
    # Paper Sect. 5.1: the 1G NIC supports only standard MTUs.
    assert config.BROADCOM_1G.max_mtu < config.NETEFFECT_10G.max_mtu


def test_serialize_time_includes_link_header():
    nic = config.NETEFFECT_10G
    assert nic.serialize_ns(1500) > 1500 * 8 / 10  # ns at 10 Gbps


def test_table1_defaults():
    """Table 1: the paper's evaluation configuration."""
    t = config.VnetTuning()
    assert t.mode is config.VnetMode.ADAPTIVE
    assert t.alpha_l == 1e3
    assert t.alpha_u == 1e4
    assert t.window_ns == 5_000_000      # 5 ms
    assert t.n_dispatchers == 1
    assert t.yield_strategy is config.YieldStrategy.IMMEDIATE
    assert t.alpha_l < t.alpha_u         # hysteresis requires a gap


def test_default_tuning_overrides():
    t = config.default_tuning(n_dispatchers=3, vnet_mtu=1500)
    assert t.n_dispatchers == 3
    assert t.vnet_mtu == 1500
    assert t.mode is config.VnetMode.ADAPTIVE  # untouched defaults


def test_params_are_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.NETEFFECT_10G.rate_bps = 1


def test_host_params_with():
    host = config.default_host()
    cheaper = host.with_(memory=config.MemoryParams(copy_setup_ns=10))
    assert cheaper.memory.copy_setup_ns == 10
    assert host.memory.copy_setup_ns == 60  # original untouched


def test_vmm_round_trip():
    p = config.VMMParams()
    assert p.round_trip_ns == p.exit_ns + p.entry_ns


def test_checksum_cost_scales_with_bytes():
    s = config.HostStackParams()
    assert s.checksum_ns(10_000) == 10 * s.checksum_ns(1_000)


def test_vnet_mtu_limit_matches_paper():
    """VNET/P supports MTUs up to 64 KB (sized for max IPv4, Sect. 4.4)."""
    assert config.VnetTuning(vnet_mtu=64_000).vnet_mtu == 64_000
