"""Generator determinism and structural properties of the fabrics."""

import pytest

from repro.topo import (
    TopoSpec,
    TopologyCompiler,
    fat_tree,
    full_mesh,
    generate,
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
        TopoSpec(kind="fat-tree", n_hosts=64, vms_per_host=2),
        TopoSpec(kind="mesh", n_hosts=2),
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


def test_generate_rejects_unknown_kind():
    with pytest.raises(ValueError):
        generate(TopoSpec(kind="hypercube", n_hosts=8))


def test_compute_hosts_come_first():
    """VM index ↔ host index math relies on compute hosts preceding
    routers in every generated topology."""
    for topo in (fat_tree(16), fat_tree(20, vms_per_host=2), full_mesh(3)):
        n = len(topo.compute_hosts)
        assert all(h.vms > 0 for h in topo.hosts[:n])
        assert all(h.vms == 0 for h in topo.hosts[n:])
