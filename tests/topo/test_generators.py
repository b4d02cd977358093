"""Generator determinism and structural properties of the fabrics."""

import pytest

from repro.topo import (
    TopoSpec,
    TopologyCompiler,
    fat_tree,
    full_mesh,
    generate,
    multirack,
    torus2d,
)


def compile_(topo):
    return TopologyCompiler(topo).compile()


@pytest.mark.parametrize(
    "spec",
    [
        TopoSpec(kind="mesh", n_hosts=4),
        TopoSpec(kind="mesh", n_hosts=3, vms_per_host=2),
        TopoSpec(kind="fat-tree", n_hosts=16),
        TopoSpec(kind="fat-tree", n_hosts=20, seed=3),
        TopoSpec(kind="torus", rows=3, cols=4),
        TopoSpec(kind="multirack", racks=3, hosts_per_rack=8),
    ],
)
def test_same_spec_same_compiled_tables(spec):
    """Same spec → structurally equal topologies AND identical compiled
    route tables (the signature hashes every rendered config line)."""
    a, b = generate(spec), generate(spec)
    assert a == b
    assert compile_(a).signature() == compile_(b).signature()


def test_seed_changes_fat_tree_routing():
    base = compile_(fat_tree(16, seed=0)).signature()
    assert compile_(fat_tree(16, seed=1)).signature() != base


def test_seed_changes_multirack_spine_assignment():
    base = compile_(multirack(4, 8, seed=0)).signature()
    assert compile_(multirack(4, 8, seed=7)).signature() != base


def test_mesh_shape():
    topo = full_mesh(4, vms_per_host=2)
    assert len(topo.hosts) == 4
    assert topo.n_routers == 0
    assert sum(h.vms for h in topo.hosts) == 8
    assert len(topo.links) == 12  # directed all-pairs
    assert topo.wiring == "mesh"


def test_fat_tree_shape():
    topo = fat_tree(16)  # k=4: 16 compute, 4 pods of 2+2, 4 cores
    assert len(topo.compute_hosts) == 16
    assert topo.n_routers == 20
    roles = {r.tier for r in topo.routers}
    assert roles == {"edge", "agg", "core"}


def test_fat_tree_trims_unused_pods():
    topo = fat_tree(20)  # k=6 (cap 54), pod_cap=9 -> 3 pods, not 6
    pods = {h.rack for h in topo.compute_hosts}
    assert len(pods) == 3


def test_torus_shape():
    topo = torus2d(3, 4)
    assert len(topo.compute_hosts) == 12
    assert topo.n_routers == 0
    # Each host links to its 4 ring neighbors (3-row ring: up==down is
    # deduplicated, so degree can be 3).
    c = compile_(topo)
    degrees = {len(h.links) for h in c.hosts}
    assert degrees <= {3, 4}


def test_multirack_oversubscription_sets_spine_count():
    topo = multirack(4, 8, oversubscription=4)
    assert sum(1 for r in topo.routers if r.tier == "spine") == 2
    topo = multirack(4, 8, oversubscription=2)
    assert sum(1 for r in topo.routers if r.tier == "spine") == 4
    topo = multirack(4, 8, oversubscription=16)
    assert sum(1 for r in topo.routers if r.tier == "spine") == 1


def test_generate_rejects_unknown_kind():
    with pytest.raises(ValueError):
        generate(TopoSpec(kind="hypercube", n_hosts=8))


def test_compute_hosts_come_first():
    """VM index ↔ host index math relies on compute hosts preceding
    routers in every generated topology."""
    for topo in (fat_tree(16), torus2d(2, 3), multirack(2, 4)):
        n = len(topo.compute_hosts)
        assert all(h.vms > 0 for h in topo.hosts[:n])
        assert all(h.vms == 0 for h in topo.hosts[n:])
