"""Cluster-scale provisioning experiments: overlay bring-up vs N.

The paper's testbeds are a handful of hosts wired by hand; the cloud
story ("bridging the cloud and HPC") is about *provisioning* an HPC
overlay across hundreds of hosts.  This family measures, entirely in
simulated time, what that costs as the fabric grows:

* **convergence** — route compilation size and the simulated time for a
  staggered controller push to configure every host of a fat-tree
  (:mod:`repro.topo.generators`), tracked by
  :class:`~repro.obs.convergence.ConvergenceTracker`;
* **first packet** — guest-to-guest RTT across the freshly converged
  fabric's longest path (cross-pod, multi-hop through VM-less router
  hosts);
* **flow-cache behaviour** — the per-flow fast path's hit rate on
  deep (5-hop) forwarding paths, reported per point.

Every observable is deterministic and simulated; no wall-clock values
appear in rows (the exec engine's cold/warm and serial/parallel CI
diffs depend on that).
"""

from __future__ import annotations

from ...exec import Engine, Point, run_points
from ...topo import TopologyCompiler, TopoSpec, generate, probe_rtt_ns, provision
from ..report import ExperimentResult, Table

__all__ = ["provisioning_convergence"]


def _provisioning_point(spec: TopoSpec, apply_ns: int, stagger_ns: int,
                        probe_count: int) -> dict:
    topo = generate(spec)
    compiled = TopologyCompiler(topo).compile()
    tb = compiled.build(configure=False)
    report = provision(tb, apply_ns=apply_ns, stagger_ns=stagger_ns)
    # Longest path: first VM to last VM (different pods in a fat-tree).
    rtt_ns = probe_rtt_ns(tb, 0, len(tb.endpoints) - 1, count=probe_count)
    hits = sum(c.flowcache.hits for c in tb.cores)
    misses = sum(c.flowcache.misses for c in tb.cores)
    return {
        "topo": spec.label(),
        "n_hosts": spec.n_hosts,
        "routers": compiled.n_routers,
        "routes_total": compiled.routes_total,
        "max_table": compiled.max_table,
        "commands": compiled.n_commands,
        "convergence_ms": report.converged_ms,
        "first_packet_us": rtt_ns / 1e3,
        "flowcache_hit_rate": hits / max(1, hits + misses),
    }


def provisioning_convergence(
    sizes=(16, 64, 256, 1024),
    quick: bool = False,
    engine: Engine | None = None,
) -> ExperimentResult:
    """Overlay convergence and first-packet latency vs cluster size.

    Spins up fat-tree overlays of ``sizes`` compute hosts (plus the
    edge/agg/core routers the fabric needs), provisions each with a
    staggered simulated controller push, and reports route-table size,
    convergence time, cross-pod first-packet RTT and flow-cache hit
    rate per point.
    """
    if quick:
        sizes = tuple(n for n in sizes if n <= 64) or (16,)
    probe_count = 3 if quick else 10
    rows = run_points(
        [
            Point(
                "provisioning",
                f"fat-tree.{n}",
                _provisioning_point,
                {
                    "spec": TopoSpec(kind="fat-tree", n_hosts=n),
                    "apply_ns": 20_000,
                    "stagger_ns": 50_000,
                    "probe_count": probe_count,
                },
            )
            for n in sizes
        ],
        engine,
    )
    table = Table(
        ["topology", "hosts", "routers", "routes", "max table", "commands",
         "converge (ms)", "first pkt (us)", "flow-cache hit"],
        title="Provisioning: overlay convergence vs cluster size",
    )
    result = ExperimentResult(
        "provisioning", "overlay provisioning and convergence", tables=[table]
    )
    for row in rows:
        table.add(row["topo"], row["n_hosts"], row["routers"],
                  row["routes_total"], row["max_table"], row["commands"],
                  row["convergence_ms"], row["first_packet_us"],
                  row["flowcache_hit_rate"])
        result.rows.append(row)
    result.notes.append(
        "convergence time is simulated (staggered controller push, "
        "20 us/command); expected to grow with total command count, while "
        "first-packet RTT grows only with path depth"
    )
    return result
