"""Tests for VTTIF-style topology inference from overlay traffic."""

import pytest

from repro.config import NETEFFECT_10G
from repro.harness.testbed import build_vnetp
from repro.proto.base import Blob
from repro.vnet.inference import (
    InferredTopology,
    Topology,
    aggregate_matrix,
    infer_topology,
)
from repro.vnet.monitor import TrafficMonitor


def build_monitored(n_hosts):
    tb = build_vnetp(n_hosts=n_hosts, nic_params=NETEFFECT_10G)
    monitors = [TrafficMonitor(tb.sim, core) for core in tb.cores]
    return tb, monitors


def run_pattern(tb, pattern, nbytes=20_000, rounds=3):
    """Drive UDP traffic between endpoint indices given as (src, dst) or
    (src, dst, nbytes, rounds) tuples."""
    sim = tb.sim
    for i, ep in enumerate(tb.endpoints):
        if 7000 + i not in ep.stack._udp_socks:
            ep.stack.udp_socket(port=7000 + i)

    def tx(src, dst, size, n):
        sock = src.stack.udp_socket()
        for _ in range(n):
            yield from sock.sendto(Blob(size), dst.ip, 7000 + tb.endpoints.index(dst))

    procs = []
    for entry in pattern:
        s, d = entry[0], entry[1]
        size = entry[2] if len(entry) > 2 else nbytes
        n = entry[3] if len(entry) > 3 else rounds
        procs.append(sim.process(tx(tb.endpoints[s], tb.endpoints[d], size, n)))
    sim.run(until=sim.all_of(procs))
    sim.run()


def test_no_traffic_is_none():
    tb, monitors = build_monitored(2)
    result = infer_topology(monitors)
    assert result.topology is Topology.NONE


def test_single_pair():
    tb, monitors = build_monitored(3)
    run_pattern(tb, [(0, 1)])
    result = infer_topology(monitors)
    assert result.topology is Topology.PAIR


def test_ring_pattern():
    tb, monitors = build_monitored(5)
    n = 5
    run_pattern(tb, [(i, (i + 1) % n) for i in range(n)])
    result = infer_topology(monitors)
    assert result.topology is Topology.RING


def test_star_pattern():
    tb, monitors = build_monitored(5)
    run_pattern(tb, [(0, j) for j in range(1, 5)] + [(j, 0) for j in range(1, 5)])
    result = infer_topology(monitors)
    assert result.topology is Topology.STAR


def test_all_to_all_pattern():
    tb, monitors = build_monitored(4)
    pattern = [(i, j) for i in range(4) for j in range(4) if i != j]
    run_pattern(tb, pattern)
    result = infer_topology(monitors)
    assert result.topology is Topology.ALL_TO_ALL
    assert result.density == pytest.approx(1.0)


def test_noise_thresholding():
    """Tiny control flows must not turn a pair into something denser."""
    tb, monitors = build_monitored(3)
    run_pattern(
        tb,
        [(0, 1, 50_000, 5), (0, 2, 60, 1), (2, 1, 60, 1)],  # data + noise
    )
    result = infer_topology(monitors)
    assert result.topology is Topology.PAIR


def test_aggregate_matrix_normalised():
    tb, monitors = build_monitored(3)
    run_pattern(tb, [(0, 1), (1, 2)])
    nodes, matrix = aggregate_matrix(monitors)
    assert max(max(row) for row in matrix) == pytest.approx(1.0)
    assert [len(row) for row in matrix] == [len(nodes)] * len(nodes)


def test_describe_is_informative():
    tb, monitors = build_monitored(3)
    run_pattern(tb, [(0, 1)])
    text = infer_topology(monitors).describe()
    assert "pair" in text
