"""TopologyCompiler: facade equivalence, golden tables, live builds."""

import json
from pathlib import Path

import pytest

from repro.harness.testbed import build_topo, build_vnetp
from repro.topo import (
    TopoSpec,
    TopologyCompiler,
    fat_tree,
    full_mesh,
    peer_guests,
    probe_rtt_ns,
    provision,
    torus2d,
)
from repro.vnet.lang import parse_config, render_config

GOLDEN = Path(__file__).parent.parent / "golden" / "topo_fattree_k4.json"


def legacy_vnetp_lines(n_hosts, vms_per_host):
    """The pre-refactor build_vnetp configuration, constructed verbatim
    (guest MAC numbering, link order, route order)."""
    from repro.proto.ethernet import mac_addr

    n_vms = n_hosts * vms_per_host
    macs = [mac_addr(i + 1, prefix=0x5A) for i in range(n_vms)]
    per_host = []
    for i in range(n_hosts):
        lines = []
        for j in range(n_hosts):
            if i != j:
                lines.append(f"add link to{j} udp 10.0.0.{j + 1}:5002")
        for idx in range(n_vms):
            owner = idx // vms_per_host
            if owner == i:
                lines.append(
                    f"add route src any dst {macs[idx]} interface if{idx % vms_per_host}"
                )
            else:
                lines.append(f"add route src any dst {macs[idx]} link to{owner}")
        per_host.append("\n".join(lines))
    return per_host


@pytest.mark.parametrize("n_hosts,vms_per_host", [(2, 1), (3, 1), (3, 2), (5, 1)])
def test_mesh_config_matches_legacy_builder(n_hosts, vms_per_host):
    """The compiler emits byte-identical configuration to the hand-rolled
    build_vnetp loop it replaced — the facade bit-identity contract."""
    compiled = TopologyCompiler(full_mesh(n_hosts, vms_per_host)).compile()
    expected = legacy_vnetp_lines(n_hosts, vms_per_host)
    assert [h.config_text for h in compiled.hosts] == expected


def test_render_parse_round_trip():
    """config_text → parse_config → render_config is a fixed point."""
    compiled = TopologyCompiler(fat_tree(16)).compile()
    for host in compiled.hosts:
        text = host.config_text
        assert render_config(parse_config(text)) == text


def test_golden_fat_tree_tables():
    """The k=4 fat-tree's compiled tables are pinned: any change to
    generation or compilation that alters a single route line fails."""
    compiled = TopologyCompiler(fat_tree(16)).compile()
    got = {
        "signature": compiled.signature(),
        "hosts": {h.name: h.config_text.splitlines() for h in compiled.hosts},
    }
    want = json.loads(GOLDEN.read_text())
    assert got["signature"] == want["signature"]
    assert got["hosts"] == want["hosts"]


def test_build_topo_mesh_equals_build_vnetp():
    """The generic facade and the legacy one produce interchangeable
    testbeds for mesh specs (same routes, same endpoint addressing)."""
    a = build_vnetp(n_hosts=3)
    b = build_topo(TopoSpec(kind="mesh", n_hosts=3))
    assert [e.ip for e in a.endpoints] == [e.ip for e in b.endpoints]
    assert [h.ip for h in a.hosts] == [h.ip for h in b.hosts]
    for ca, cb in zip(a.cores, b.cores):
        assert ca.routing.entries == cb.routing.entries
        assert sorted(ca.links) == sorted(cb.links)


def test_fat_tree_cross_pod_ping():
    """End-to-end: a guest frame crosses edge→agg→core→agg→edge through
    VM-less router hosts and comes back."""
    tb = build_topo(TopoSpec(kind="fat-tree", n_hosts=16))
    rtt = probe_rtt_ns(tb, 0, 15)
    same_edge = probe_rtt_ns(tb, 0, 1)
    assert rtt > same_edge > 0


def test_torus_multi_hop_ping():
    tb = build_topo(TopoSpec(kind="torus", rows=3, cols=3))
    assert probe_rtt_ns(tb, 0, 4) > 0


def test_provision_deterministic():
    """Two identical provisioning runs: same convergence, same ramp."""
    def run():
        tb = build_topo(TopoSpec(kind="fat-tree", n_hosts=16), configure=False)
        report = provision(tb)
        return report.converged_ns, report.first_ready_ns, report.last_ready_ns

    assert run() == run()


def test_fat_tree_probe_flow_cache_hits():
    """The per-flow cache covers multi-hop forwarding: a provisioned
    16-host fat-tree probed with 20 pings from host 0 to host 15 (the
    cross-pod path) hits and misses exactly as pinned."""
    tb = TopologyCompiler(fat_tree(16)).compile().build(configure=False)
    provision(tb)
    probe_rtt_ns(tb, 0, 15, count=20)
    caches = [c.flowcache for c in tb.cores if c.flowcache]
    assert sum(fc.hits for fc in caches) == 266
    assert sum(fc.misses for fc in caches) == 14


def test_provision_requires_unconfigured_controls():
    tb = build_topo(TopoSpec(kind="mesh", n_hosts=2))
    tb.controls = []
    with pytest.raises(ValueError):
        provision(tb)


def test_peer_guests_requires_vms():
    tb = build_topo(TopoSpec(kind="fat-tree", n_hosts=16))
    peer_guests(tb, 0, 15)  # ok
    from repro.harness.testbed import build_native

    native = build_native(n_hosts=2)
    with pytest.raises(ValueError):
        peer_guests(native, 0, 1)


def test_compiler_rejects_dangling_route():
    from repro.topo import HostSpec, Network, RoutePlan, Topology

    topo = Topology(
        name="bad",
        network=Network("n"),
        hosts=(HostSpec("h0"), HostSpec("h1")),
        routes=(RoutePlan("h0", "any", "5a:00:00:00:00:02", via_link="h1"),),
    )
    with pytest.raises(ValueError):
        TopologyCompiler(topo).compile()


def test_signature_tracks_content():
    base = TopologyCompiler(torus2d(3, 3)).compile().signature()
    assert TopologyCompiler(torus2d(3, 3)).compile().signature() == base
    assert TopologyCompiler(torus2d(3, 4)).compile().signature() != base
