"""Portability experiments: IPoIB (Figs. 15-16, Sect. 6.1), Cray Gemini
(Sect. 6.2), and the Kitten embedding (Sect. 6.3)."""

from __future__ import annotations

from ... import units
from ...apps.ping import run_ping
from ...apps.ttcp import run_ttcp_tcp
from ...exec import Engine, Point, run_points
from ...host.kitten import build_vnetp_kitten
from ...interconnect import (
    build_native_gemini,
    build_native_ipoib,
    build_vnetp_gemini,
    build_vnetp_ipoib,
)
from ..report import ExperimentResult, Table
from .cluster import PROC_COUNTS, _hpcc_apps_tables, _latbw_point

__all__ = ["sec61_infiniband", "fig15", "fig16", "sec62_gemini", "sec63_kitten"]


def _ping_point(builder, count: int, **builder_kwargs) -> dict:
    """Ping RTT over a freshly built testbed."""
    tb = builder(**builder_kwargs)
    p = run_ping(tb.endpoints[0], tb.endpoints[1], count=count)
    return {"avg_rtt_us": p.avg_rtt_us, "stdev_ns": p.rtt_ns.stdev}


def _ttcp_tcp_point(builder, tcp_bytes: int, sndbuf: int | None = None,
                    rcvbuf: int | None = None) -> dict:
    """ttcp TCP throughput over a freshly built testbed."""
    tb = builder()
    kwargs = {}
    if sndbuf is not None:
        kwargs.update(sndbuf=sndbuf, rcvbuf=rcvbuf)
    r = run_ttcp_tcp(tb.endpoints[0], tb.endpoints[1], total_bytes=tcp_bytes, **kwargs)
    return {"gbps": r.gbps, "MBps": r.MBps}


def sec61_infiniband(quick: bool = False,
                     engine: Engine | None = None) -> ExperimentResult:
    """Sect. 6.1 text: out-of-the-box VNET/P on IPoIB."""
    tcp_bytes = (10 if quick else 30) * units.MB
    count = 10 if quick else 50
    pn, pv, bn, bv = run_points(
        [
            Point("sec6.1-ib", "ping.native", _ping_point,
                  {"builder": build_native_ipoib, "count": count}),
            Point("sec6.1-ib", "ping.vnetp", _ping_point,
                  {"builder": build_vnetp_ipoib, "count": count}),
            Point("sec6.1-ib", "tcp.native", _ttcp_tcp_point,
                  {"builder": build_native_ipoib, "tcp_bytes": tcp_bytes}),
            Point("sec6.1-ib", "tcp.vnetp", _ttcp_tcp_point,
                  {"builder": build_vnetp_ipoib, "tcp_bytes": tcp_bytes}),
        ],
        engine,
    )
    table = Table(["metric", "Native IPoIB", "VNET/P on IPoIB"], title="IPoIB (untuned)")
    result = ExperimentResult("sec6.1-ib", "VNET/P over InfiniBand (IPoIB)", tables=[table])
    table.add("ping RTT (us)", pn["avg_rtt_us"], pv["avg_rtt_us"])
    table.add("ttcp TCP (Gbps)", bn["gbps"], bv["gbps"])
    result.rows.append(
        {
            "native_ping_us": pn["avg_rtt_us"],
            "vnetp_ping_us": pv["avg_rtt_us"],
            "native_gbps": bn["gbps"],
            "vnetp_gbps": bv["gbps"],
        }
    )
    result.notes.append("paper anchors: VNET/P ping ~155 us, ttcp ~3.6 Gbps (preliminary)")
    return result


def fig15(procs=PROC_COUNTS, quick: bool = False,
          engine: Engine | None = None) -> ExperimentResult:
    """Fig. 15: HPCC latency-bandwidth over IPoIB."""
    if quick:
        procs = (8, 24)
    points = [
        Point("fig15", f"p{p}.{cfg}", _latbw_point, {"cfg": cfg, "procs": p})
        for p in procs
        for cfg in ("native-ipoib", "vnetp-ipoib")
    ]
    values = run_points(points, engine)
    table = Table(
        [
            "procs",
            "nat pp-lat (us)", "vp pp-lat (us)",
            "nat pp-bw (MB/s)", "vp pp-bw (MB/s)",
            "nat rring-bw", "vp rring-bw",
        ],
        title="HPCC latency-bandwidth over IPoIB",
    )
    result = ExperimentResult("fig15", "HPCC latency-bandwidth on IPoIB", tables=[table])
    for i, p in enumerate(procs):
        rn, rv = values[2 * i], values[2 * i + 1]
        table.add(
            p,
            rn["pingpong_lat_us"], rv["pingpong_lat_us"],
            rn["pingpong_bw_MBps"], rv["pingpong_bw_MBps"],
            rn["random_ring_bw_MBps"], rv["random_ring_bw_MBps"],
        )
        result.rows.append({"procs": p, "native": rn, "vnetp": rv})
    result.notes.append(
        "paper anchors: pingpong 70-75 % of native bw at 3-4x latency; "
        "rings ~50-55 % of native bw"
    )
    return result


def fig16(procs=PROC_COUNTS, quick: bool = False,
          engine: Engine | None = None) -> ExperimentResult:
    """Fig. 16: HPCC applications over IPoIB."""
    if quick:
        procs = (8, 24)
    result = _hpcc_apps_tables(
        "fig16", ("native-ipoib", "vnetp-ipoib"), ("nat", "vp"), procs,
        "HPCC applications over IPoIB", "HPCC applications on IPoIB", engine,
    )
    result.notes.append(
        "paper anchors: RandomAccess 75-80 % of native; FFT 30-45 % of native"
    )
    return result


def sec62_gemini(quick: bool = False,
                 engine: Engine | None = None) -> ExperimentResult:
    """Sect. 6.2: VNET/P over Cray Gemini's IPoG layer."""
    tcp_bytes = (30 if quick else 80) * units.MB
    buf = 4 * units.MB
    rn, rv = run_points(
        [
            Point("sec6.2-gemini", "native", _ttcp_tcp_point,
                  {"builder": build_native_gemini, "tcp_bytes": tcp_bytes,
                   "sndbuf": buf, "rcvbuf": buf}),
            Point("sec6.2-gemini", "vnetp", _ttcp_tcp_point,
                  {"builder": build_vnetp_gemini, "tcp_bytes": tcp_bytes,
                   "sndbuf": buf, "rcvbuf": buf}),
        ],
        engine,
    )
    table = Table(["configuration", "ttcp TCP (GB/s)"], title="Gemini IPoG")
    result = ExperimentResult("sec6.2-gemini", "VNET/P over Cray Gemini", tables=[table])
    table.add("Native IPoG", rn["MBps"] / 1000)
    table.add("VNET/P on IPoG", rv["MBps"] / 1000)
    result.rows.append({"native_GBps": rn["MBps"] / 1000, "vnetp_GBps": rv["MBps"] / 1000})
    result.notes.append(
        "paper anchor: VNET/P ~1.6 GB/s (13 Gbps), preliminary, against a "
        "40 Gbps theoretical peak"
    )
    return result


def _kitten_linux_ping_point(count: int) -> dict:
    """Ping on the Linux embedding (10G NIC) for the jitter comparison."""
    from ...config import NETEFFECT_10G
    from ..testbed import build_vnetp

    return _ping_point(build_vnetp, count, nic_params=NETEFFECT_10G)


def sec63_kitten(quick: bool = False,
                 engine: Engine | None = None) -> ExperimentResult:
    """Sect. 6.3: VNET/P for Kitten over InfiniBand (bridge service VM),
    including the low-jitter comparison against the Linux embedding."""
    tcp_bytes = (10 if quick else 30) * units.MB
    count = 30 if quick else 100
    rn, rk, pl, pk = run_points(
        [
            Point("sec6.3-kitten", "tcp.native", _ttcp_tcp_point,
                  {"builder": build_native_ipoib, "tcp_bytes": tcp_bytes}),
            Point("sec6.3-kitten", "tcp.kitten", _ttcp_tcp_point,
                  {"builder": build_vnetp_kitten, "tcp_bytes": tcp_bytes}),
            Point("sec6.3-kitten", "ping.linux", _kitten_linux_ping_point,
                  {"count": count}),
            Point("sec6.3-kitten", "ping.kitten", _ping_point,
                  {"builder": build_vnetp_kitten, "count": count}),
        ],
        engine,
    )
    table = Table(["configuration", "ttcp TCP (Gbps)"], title="Kitten / InfiniBand, 8900 B payloads")
    jitter = Table(
        ["embedding", "ping RTT (us)", "jitter stdev (us)"],
        title="Latency jitter: Linux vs Kitten embedding",
    )
    result = ExperimentResult("sec6.3-kitten", "VNET/P for Kitten", tables=[table, jitter])
    table.add("Native IPoIB (RC mode)", rn["gbps"])
    table.add("VNET/P on Kitten (bridge VM)", rk["gbps"])
    jitter.add("Linux host", pl["avg_rtt_us"], pl["stdev_ns"] / 1000)
    jitter.add("Kitten LWK", pk["avg_rtt_us"], pk["stdev_ns"] / 1000)
    result.rows.append(
        {
            "native_gbps": rn["gbps"],
            "kitten_gbps": rk["gbps"],
            "linux_jitter_us": pl["stdev_ns"] / 1000,
            "kitten_jitter_us": pk["stdev_ns"] / 1000,
        }
    )
    result.notes.append(
        "paper anchors: 4.0 Gbps vs 6.5 Gbps native; Kitten provides "
        "'very little jitter in latency compared to the Linux version'"
    )
    return result
