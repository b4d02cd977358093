"""Ablation experiments for the design choices Sect. 4 calls out:
dispatch modes (Fig. 6), yield strategies (Sect. 4.8), MTU selection
(Sect. 4.4), and the routing cache (Sect. 4.3).

Every ablation is expressed as independent :class:`~repro.exec.Point`\\ s
so the execution engine can fan configurations out across worker
processes and cache unchanged points; cross-point derived values (the
native fraction in :func:`abl_vnetp_plus`) are computed at assembly
time from the point values.
"""

from __future__ import annotations

from ... import units
from ...apps.ping import run_ping
from ...apps.ttcp import run_ttcp_udp
from ...config import (
    NETEFFECT_10G,
    VnetMode,
    VnetTuning,
    YieldStrategy,
    default_tuning,
)
from ...exec import Engine, Point, run_points
from ...vnet.overlay import ANY_MAC, DestType, RouteEntry
from ..report import ExperimentResult, Table
from ..testbed import build_native, build_vnetp

__all__ = [
    "abl_adaptive_mode",
    "abl_yield_strategy",
    "abl_mtu",
    "abl_routing_cache",
    "abl_vnetp_plus",
]


def _adaptive_mode_point(mode: VnetMode, ping_count: int, duration_ns: int) -> dict:
    tuning = default_tuning(mode=mode)
    tb = build_vnetp(nic_params=NETEFFECT_10G, tuning=tuning)
    ping = run_ping(tb.endpoints[0], tb.endpoints[1], count=ping_count)
    tb2 = build_vnetp(nic_params=NETEFFECT_10G, tuning=tuning)
    udp = run_ttcp_udp(tb2.endpoints[0], tb2.endpoints[1], duration_ns=duration_ns)
    nic = tb2.endpoints[0].vm.virtio_nics[0]
    kicks_per_pkt = nic.tx_kicks / max(1, nic.tx_packets)
    return {
        "mode": mode.value,
        "rtt_us": ping.avg_rtt_us,
        "udp_gbps": udp.gbps,
        "kicks_per_pkt": kicks_per_pkt,
    }


def abl_adaptive_mode(quick: bool = False, engine: Engine | None = None) -> ExperimentResult:
    """Guest-driven vs VMM-driven vs adaptive: latency AND throughput.

    The point of Fig. 6's adaptive controller: guest-driven wins on
    latency, VMM-driven wins on throughput, adaptive gets both.
    """
    count = 10 if quick else 50
    duration = (5 if quick else 15) * units.MS
    rows = run_points(
        [
            Point(
                "abl-adaptive",
                mode.value,
                _adaptive_mode_point,
                {"mode": mode, "ping_count": count, "duration_ns": duration},
            )
            for mode in (VnetMode.GUEST_DRIVEN, VnetMode.VMM_DRIVEN, VnetMode.ADAPTIVE)
        ],
        engine,
    )
    table = Table(
        ["mode", "ping RTT (us)", "UDP goodput (Gbps)", "kick exits/pkt"],
        title="Dispatch-mode ablation (10G)",
    )
    result = ExperimentResult("abl-adaptive", "dispatch mode ablation", tables=[table])
    for row in rows:
        table.add(row["mode"], row["rtt_us"], row["udp_gbps"], row["kicks_per_pkt"])
        result.rows.append(row)
    result.notes.append(
        "expected: guest-driven = lowest latency; VMM-driven = highest "
        "throughput with ~0 kick exits; adaptive matches both"
    )
    return result


def _yield_point(strategy: YieldStrategy, ping_count: int, duration_ns: int) -> dict:
    tuning = default_tuning(yield_strategy=strategy)
    tb = build_vnetp(nic_params=NETEFFECT_10G, tuning=tuning)
    ping = run_ping(tb.endpoints[0], tb.endpoints[1], count=ping_count)
    tb2 = build_vnetp(nic_params=NETEFFECT_10G, tuning=tuning)
    udp = run_ttcp_udp(tb2.endpoints[0], tb2.endpoints[1], duration_ns=duration_ns)
    return {"strategy": strategy.value, "rtt_us": ping.avg_rtt_us, "udp_gbps": udp.gbps}


def abl_yield_strategy(quick: bool = False, engine: Engine | None = None) -> ExperimentResult:
    """Immediate vs timed vs adaptive yield: the latency/CPU tradeoff of
    Sect. 4.8 (Table 1 uses immediate yield to probe performance limits)."""
    count = 10 if quick else 50
    duration = (5 if quick else 10) * units.MS
    rows = run_points(
        [
            Point(
                "abl-yield",
                strategy.value,
                _yield_point,
                {"strategy": strategy, "ping_count": count, "duration_ns": duration},
            )
            for strategy in (
                YieldStrategy.IMMEDIATE, YieldStrategy.TIMED, YieldStrategy.ADAPTIVE
            )
        ],
        engine,
    )
    table = Table(
        ["strategy", "ping RTT (us)", "UDP goodput (Gbps)"],
        title="Yield-strategy ablation (10G)",
    )
    result = ExperimentResult("abl-yield", "yield strategy ablation", tables=[table])
    for row in rows:
        table.add(row["strategy"], row["rtt_us"], row["udp_gbps"])
        result.rows.append(row)
    result.notes.append(
        "expected: timed yield adds ~Tsleep/2 per wakeup to latency; "
        "throughput is unaffected (loops never sleep under load)"
    )
    return result


def _mtu_point(mtu: int, duration_ns: int) -> dict:
    fits = mtu + 42 <= 9000
    # VMM-driven isolates the data-path effect from kick-exit noise.
    tb = build_vnetp(
        nic_params=NETEFFECT_10G,
        guest_mtu=mtu,
        tuning=default_tuning(mode=VnetMode.VMM_DRIVEN),
    )
    udp = run_ttcp_udp(
        tb.endpoints[0], tb.endpoints[1], duration_ns=duration_ns, write_size=60_000
    )
    return {"mtu": mtu, "fits": fits, "udp_gbps": udp.gbps}


def abl_mtu(mtus=(1458, 4000, 8958, 9100, 16000), quick: bool = False,
            engine: Engine | None = None) -> ExperimentResult:
    """Guest MTU sweep over a 9000-byte physical MTU.

    Shows both effects of Sect. 4.4: throughput grows with MTU while
    encapsulated packets fit, then fragmentation overhead appears once
    guest MTU + 42 exceeds the physical MTU.
    """
    duration = (8 if quick else 20) * units.MS
    rows = run_points(
        [
            Point("abl-mtu", f"mtu{mtu}", _mtu_point,
                  {"mtu": mtu, "duration_ns": duration})
            for mtu in mtus
        ],
        engine,
    )
    table = Table(
        ["guest MTU (B)", "fits w/o frag", "UDP goodput (Gbps)"],
        title="Guest MTU sweep (10G, 9000 B physical MTU)",
    )
    result = ExperimentResult("abl-mtu", "MTU and fragmentation", tables=[table])
    for row in rows:
        table.add(row["mtu"], "yes" if row["fits"] else "no", row["udp_gbps"])
        result.rows.append(row)
    result.notes.append(
        "expected: goodput rises with MTU, with a fragmentation penalty "
        "once encapsulation overflows the physical MTU"
    )
    return result


def _routing_cache_point(n_routes: int, cache: bool, duration_ns: int) -> dict:
    tuning = default_tuning(routing_cache=cache)
    tb = build_vnetp(nic_params=NETEFFECT_10G, tuning=tuning)
    # Pad the routing tables with inert entries (exact-src, any-dst:
    # lower specificity than every real route, so selection is
    # unchanged while the charged scan cost grows with table size).
    for core in tb.cores:
        core.routing.load(
            [
                RouteEntry(
                    src_mac=f"0e:00:00:00:{i >> 8:02x}:{i & 0xff:02x}",
                    dst_mac=ANY_MAC,
                    dest_type=DestType.LINK,
                    dest_name=next(iter(core.links)),
                )
                for i in range(n_routes)
            ]
        )
    ping = run_ping(tb.endpoints[0], tb.endpoints[1], count=10)
    core = tb.cores[0]

    def charged_lookups() -> tuple[int, int]:
        # A flow-cache hit charges warm_lookup_cost(): a hash-cache hit
        # when the cache is on, a full scan when it is off.
        hits = core.routing.cache_hits + (core.flowcache.hits if cache else 0)
        return hits, core.routing.lookups + core.flowcache.hits

    hits0, lookups0 = charged_lookups()
    udp = run_ttcp_udp(tb.endpoints[0], tb.endpoints[1], duration_ns=duration_ns)
    hits1, lookups1 = charged_lookups()
    hit_rate = (hits1 - hits0) / (lookups1 - lookups0) if lookups1 > lookups0 else 0.0
    return {
        "routes": n_routes,
        "cache": cache,
        "rtt_us": ping.avg_rtt_us,
        "udp_gbps": udp.gbps,
        "hit_rate": hit_rate,
    }


def abl_routing_cache(table_sizes=(1, 64, 256), quick: bool = False,
                      engine: Engine | None = None) -> ExperimentResult:
    """Routing cache on/off with growing routing tables.

    The table scan is linear (Sect. 4.3); the hash cache keeps the
    common case constant time.  This measures the data-path impact.
    """
    duration = (5 if quick else 10) * units.MS
    rows = run_points(
        [
            Point(
                "abl-cache",
                f"r{n_routes}.{'on' if cache else 'off'}",
                _routing_cache_point,
                {"n_routes": n_routes, "cache": cache, "duration_ns": duration},
            )
            for n_routes in table_sizes
            for cache in (True, False)
        ],
        engine,
    )
    table = Table(
        ["routes", "cache", "ping RTT (us)", "UDP goodput (Gbps)"],
        title="Routing-cache ablation (10G)",
    )
    result = ExperimentResult("abl-cache", "routing cache ablation", tables=[table])
    for row in rows:
        table.add(row["routes"], "on" if row["cache"] else "off",
                  row["rtt_us"], row["udp_gbps"])
        result.rows.append(row)
    result.notes.append(
        "expected: without the cache, throughput/latency degrade as the "
        "table grows; with it they are flat"
    )
    return result


def _vnetp_plus_native_point(duration_ns: int) -> dict:
    tn = build_native(nic_params=NETEFFECT_10G)
    udp = run_ttcp_udp(tn.endpoints[0], tn.endpoints[1], duration_ns=duration_ns)
    return {"udp_mbps": udp.mbps}


def _vnetp_plus_point(label: str, tuning: VnetTuning,
                      ping_count: int, duration_ns: int) -> dict:
    tb = build_vnetp(nic_params=NETEFFECT_10G, tuning=tuning)
    ping = run_ping(tb.endpoints[0], tb.endpoints[1], count=ping_count)
    tb2 = build_vnetp(nic_params=NETEFFECT_10G, tuning=tuning)
    udp = run_ttcp_udp(tb2.endpoints[0], tb2.endpoints[1], duration_ns=duration_ns)
    return {"config": label, "rtt_us": ping.avg_rtt_us, "udp_gbps": udp.gbps}


def abl_vnetp_plus(quick: bool = False, engine: Engine | None = None) -> ExperimentResult:
    """VNET/P+ techniques (Cui et al., SC'12): optimistic interrupts and
    cut-through forwarding.

    The companion paper reports that these bring 10 Gbps throughput to
    near-native and cut the latency overhead to 1.2-1.3x; Sect. 6.3 says
    they are being back-ported into the Linux VNET/P.  This ablation
    turns them on incrementally.
    """
    count = 10 if quick else 50
    duration = (8 if quick else 20) * units.MS
    configs = [
        ("VNET/P", default_tuning()),
        ("+ cut-through", default_tuning(cut_through=True)),
        ("+ optimistic irq", default_tuning(cut_through=True, optimistic_interrupts=True)),
    ]
    points = [
        Point("abl-vnetp-plus", "native-baseline", _vnetp_plus_native_point,
              {"duration_ns": duration})
    ] + [
        Point(
            "abl-vnetp-plus",
            label,
            _vnetp_plus_point,
            {"label": label, "tuning": tuning,
             "ping_count": count, "duration_ns": duration},
        )
        for label, tuning in configs
    ]
    values = run_points(points, engine)
    native_udp_mbps = values[0]["udp_mbps"]
    table = Table(
        ["configuration", "ping RTT (us)", "UDP goodput (Gbps)", "% of native UDP"],
        title="VNET/P+ techniques (10G)",
    )
    result = ExperimentResult("abl-vnetp-plus", "optimistic interrupts + cut-through", tables=[table])
    for row in values[1:]:
        fraction = row["udp_gbps"] * 1000 / native_udp_mbps
        table.add(row["config"], row["rtt_us"], row["udp_gbps"], f"{fraction:.0%}")
        result.rows.append(
            {
                "config": row["config"],
                "rtt_us": row["rtt_us"],
                "udp_gbps": row["udp_gbps"],
                "native_fraction": fraction,
            }
        )
    result.notes.append(
        "expected: cut-through lifts 10G throughput toward native "
        "(VNET/P+ reports native); optimistic interrupts trim latency"
    )
    return result
