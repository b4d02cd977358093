"""Fairness experiment family: acceptance floors + reproducibility.

Runs individual scenario points directly (cheaper than the whole
family) and asserts the PR's acceptance criteria: two symmetric Reno
flows share the 1G bottleneck at JFI >= 0.95 with >= 80% utilization,
and the asymmetric-RTT outcome is bit-reproducible.  Drift pins hold
the JFIs and the lossy utilization near their measured packet-mode
values.  The assertions hold under ``REPRO_FLUID=1`` as well (the
nightly soak runs this suite with the fluid fast path armed), so the
pins are tolerance windows rather than exact values.
"""

import math

import pytest

from repro import units
from repro.harness.experiments.fairness import (
    _asymmetric_rtt_point,
    _background_udp_point,
    _fixed_bw_point,
    _varying_loss_point,
)
from repro.topo import TopoSpec

HORIZON = 24 * units.MS
WARMUP = 6 * units.MS

# Packet-mode values measured when the drift pins were set.
ASYMMETRIC_JFI = 0.9993888882521056
LOSS_2PCT_UTILIZATION = 0.3117884444444444


def mesh(n):
    return TopoSpec(kind="mesh", n_hosts=n)


def test_symmetric_flows_meet_acceptance_floors():
    row = _fixed_bw_point("2 symmetric flows", 2, HORIZON, WARMUP, mesh(3))
    assert row["jfi"] >= 0.95
    assert row["jfi"] == pytest.approx(1.0, abs=0.02)
    assert row["utilization"] >= 0.80
    assert all(m > 0 for m in row["per_flow_mbps"])
    assert row["score"] >= 0.95 * 0.80


def test_loss_degrades_goodput_but_fast_retransmit_recovers():
    clean = _varying_loss_point("loss 0%", 0.0, 2027, HORIZON, WARMUP, mesh(2))
    lossy = _varying_loss_point("loss 2%", 0.02, 2027, HORIZON, WARMUP, mesh(2))
    assert clean["retransmits"] == 0
    assert lossy["goodput_mbps"] < clean["goodput_mbps"]
    assert lossy["goodput_mbps"] > 0
    assert lossy["utilization"] == pytest.approx(LOSS_2PCT_UTILIZATION, rel=0.15)
    # Reno recovers mostly via dup-ACKs, not timeouts.
    assert lossy["fast_retransmits"] >= 1


def test_asymmetric_rtt_is_finite_and_reproducible():
    first = _asymmetric_rtt_point("+200 us RTT", 200_000, HORIZON, WARMUP, mesh(3))
    second = _asymmetric_rtt_point("+200 us RTT", 200_000, HORIZON, WARMUP, mesh(3))
    assert first == second                    # same seed, same world, same rows
    assert math.isfinite(first["jfi"]) and first["jfi"] > 0.5
    assert first["jfi"] == pytest.approx(ASYMMETRIC_JFI, abs=0.02)
    assert all(m > 0 for m in first["per_flow_mbps"])


def test_background_udp_leaves_tcp_a_share():
    row = _background_udp_point("udp 50%", 0.5, 1400, HORIZON, WARMUP, mesh(3))
    # The paced blast must neither starve TCP nor vanish itself.
    assert row["tcp_mbps"] > 0
    assert row["udp_mbps"] > 0
    assert 0.0 < row["jfi"] <= 1.0
