"""Turn workload inputs into ``repro.exec.Point``\\ s.

Most workloads run the experiment families' own point functions with
bench-drawn arguments.  The Fig. 8 ttcp, Fig. 9 ping and provisioning
points need outputs those functions do not return (delivered bytes, ping
replies, per-pair probe RTTs), so they get small point functions here
that call the same builders and apps.
"""

from __future__ import annotations

from repro.apps.ping import run_ping
from repro.apps.ttcp import run_ttcp_tcp, run_ttcp_udp
from repro.exec import Point
from repro.harness.experiments import micro
from repro.harness.experiments.cluster import _fig14_point, _hpcc_apps_point, _latbw_point
from repro.harness.experiments.fairness import (
    _asymmetric_rtt_point,
    _background_udp_point,
    _fixed_bw_point,
    _varying_loss_point,
)
from repro.harness.experiments.resilience import _loss_goodput_point, _partition_failover_point
from repro.topo import TopologyCompiler, TopoSpec, generate, probe_rtt_ns, provision

__all__ = ["make_point"]

#: Configuration name -> (testbed builder, NIC), from the Fig. 8 and
#: Fig. 9 experiment tables.
_CONFIGS = {
    name: (builder, nic)
    for name, builder, nic in (*micro._FIG08_CONFIGS, *micro._FIG09_CONFIGS)
}


def bulk_point(builder, nic, tcp_bytes: int, udp_ns: int) -> dict:
    """ttcp TCP then UDP on fresh testbeds (one Fig. 8 bar pair)."""
    tb = builder(nic_params=nic)
    tcp = run_ttcp_tcp(tb.endpoints[0], tb.endpoints[1], total_bytes=tcp_bytes)
    tb = builder(nic_params=nic)
    udp = run_ttcp_udp(tb.endpoints[0], tb.endpoints[1], duration_ns=udp_ns)
    return {
        "tcp_bytes": tcp.bytes_moved,
        "tcp_mbps": tcp.mbps,
        "udp_mbps": udp.mbps,
        "line_mbps": nic.rate_bps / 1e6,
    }


def ping_point(builder, nic, size: int, count: int) -> dict:
    """``count`` pings of ``size`` payload bytes (one Fig. 9 cell)."""
    tb = builder(nic_params=nic)
    r = run_ping(tb.endpoints[0], tb.endpoints[1], data_size=size, count=count)
    return {
        "replies": r.rtt_ns.n,
        "avg_rtt_us": r.avg_rtt_us,
        "min_rtt_us": r.min_rtt_us,
        "max_rtt_us": r.max_rtt_us,
    }


def provision_point(n_hosts: int, pairs: list, probe_count: int) -> dict:
    """Compile, build and provision a fat-tree, then probe cross-pod pairs."""
    topo = generate(TopoSpec(kind="fat-tree", n_hosts=n_hosts))
    for a, b in pairs:
        if topo.hosts[a].rack == topo.hosts[b].rack:
            raise ValueError(f"probe pair h{a}/h{b} shares {topo.hosts[a].rack}")
    compiled = TopologyCompiler(topo).compile()
    tb = compiled.build(configure=False)
    report = provision(tb, apply_ns=20_000, stagger_ns=50_000)
    rtts = [probe_rtt_ns(tb, a, b, count=probe_count) for a, b in pairs]
    hits = sum(c.flowcache.hits for c in tb.cores if c.flowcache)
    misses = sum(c.flowcache.misses for c in tb.cores if c.flowcache)
    return {
        "routes_total": compiled.routes_total,
        "converged_ns": report.converged_ns,
        "rtt_ns": rtts,
        "flowcache_hit_ratio": hits / max(1, hits + misses),
    }


_FNS = {
    "bulk": bulk_point,
    "ping": ping_point,
    "pingpong": micro._imb_pingpong_point,
    "provision": provision_point,
    "fixed_bw": _fixed_bw_point,
    "varying_loss": _varying_loss_point,
    "asymmetric_rtt": _asymmetric_rtt_point,
    "background_udp": _background_udp_point,
    "loss_goodput": _loss_goodput_point,
    "partition": _partition_failover_point,
    "latbw": _latbw_point,
    "hpcc_apps": _hpcc_apps_point,
    "nas": _fig14_point,
}


def make_point(workload: str, spec: dict) -> Point:
    """The engine point for one workload input (see :mod:`bench.workloads`)."""
    kwargs = {k: v for k, v in spec.items() if k not in ("key", "fn")}
    if "config" in kwargs:
        kwargs["builder"], nic = _CONFIGS[kwargs.pop("config")]
        if spec["fn"] != "pingpong":  # the PingPong point fixes the 10G NIC itself
            kwargs["nic"] = nic
    if "topo" in kwargs:
        kwargs["topo"] = TopoSpec(**kwargs["topo"])
    if "pairs" in kwargs:
        kwargs["pairs"] = tuple(tuple(p) for p in kwargs["pairs"])
    return Point(f"bench.{workload}", spec["key"], _FNS[spec["fn"]], kwargs)
