"""The five benchmark workloads: seeded inputs, output checks, paper anchors.

Every input of a workload is drawn from ``random.Random(seed)`` here and
handed to the program as plain keyword arguments (JSON-serialisable
dicts; :mod:`bench.points` turns them into ``repro.exec.Point``\\ s).
This module does not import ``repro``: generating inputs and judging
outputs must not depend on the code under test.

Each workload is a closed loop with one client: its points run back to
back in one process.  The seed varies *what* each point simulates
(sizes, loss and chaos seeds, RTT offsets, process counts, probe
pairs) inside ranges chosen so that the host work of a whole pass stays
nearly constant from seed to seed.  Wider ranges would turn seed choice
into run-to-run spread of the host-time metrics.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

__all__ = [
    "WORKLOADS",
    "Workload",
    "check",
    "digest",
    "inputs",
]


MS = 1_000_000  # simulated nanoseconds per millisecond


@dataclass(frozen=True)
class Workload:
    """One workload: how to draw its inputs and how to score fidelity."""

    name: str
    make_inputs: Callable[[random.Random], list[dict]]
    #: Mean relative error against the paper anchors quoted in the
    #: experiments' notes, from ``{point key: value}``; ``None`` when the
    #: workload has no anchor.
    paper_err: Optional[Callable[[dict[str, Any]], float]] = None


# -- bulk: Fig. 8 ttcp + Fig. 11 large-message PingPong --------------------------

#: The Fig. 8 configurations, named as in ``micro._FIG08_CONFIGS``.
BULK_CONFIGS = (
    "Native-1G (1500)",
    "VNET/P-1G (1500)",
    "VNET/U-1G (1500)",
    "Native-10G (1500)",
    "VNET/P-10G (1500)",
    "Native-10G (9000)",
    "VNET/P-10G (9000)",
)
BULK_TCP_BYTES = (4_950_000, 5_050_000)
BULK_UDP_NS = (7_920_000, 8_080_000)
#: Fig. 11(a)'s PingPong sizes from 256 KiB up: each message is a
#: window-limited bulk transfer, long enough for fluid capture.
BULK_IMB_SIZES = (262144, 1 << 20, 4 << 20)
#: The 10G PingPong configurations, named as in ``micro._FIG09_CONFIGS``.
IMB_CONFIGS = ("native-10g", "vnetp-10g")


def _bulk_inputs(rng: random.Random) -> list[dict]:
    points = [
        {
            "key": config,
            "fn": "bulk",
            "config": config,
            "tcp_bytes": rng.randint(*BULK_TCP_BYTES),
            "udp_ns": rng.randint(*BULK_UDP_NS),
        }
        for config in BULK_CONFIGS
    ]
    points += [
        {"key": f"pingpong.{size}.{config}", "fn": "pingpong", "config": config, "size": size}
        for size in BULK_IMB_SIZES
        for config in IMB_CONFIGS
    ]
    return points


def _bulk_paper_err(values: dict[str, Any]) -> float:
    # Fig. 8 note: "VNET/P-1G ~ native; VNET/P-10G ~ 78 % (TCP) /
    # 74 % (UDP) of native" (the 10G figures are the 9000 B MTU bars).
    # Fig. 11 note: "beyond 256K one-way ~74 % of native".
    errs = []
    for vnetp, native, anchors in (
        ("VNET/P-1G (1500)", "Native-1G (1500)", {"tcp_mbps": 1.0, "udp_mbps": 1.0}),
        ("VNET/P-10G (9000)", "Native-10G (9000)", {"tcp_mbps": 0.78, "udp_mbps": 0.74}),
    ):
        for field, anchor in anchors.items():
            errs.append(_rel_err(values[vnetp][field] / values[native][field], anchor))
    for size in BULK_IMB_SIZES:
        bw = {c: values[f"pingpong.{size}.{c}"]["bandwidth_MBps"] for c in IMB_CONFIGS}
        errs.append(_rel_err(bw["vnetp-10g"] / bw["native-10g"], 0.74))
    return _mean(errs)


# -- latency: Fig. 9 ping sweep + Fig. 10 IMB PingPong --------------------------

#: The Fig. 9 configurations, named as in ``micro._FIG09_CONFIGS``.
LATENCY_CONFIGS = ("native-1g", "vnetp-1g", "native-10g", "vnetp-10g")
#: Fig. 9's payload sizes above the fixed 56 B ping; each seed draws one
#: size log-uniformly from the half octave just below each of them, so a
#: pass always sweeps small to fragmenting payloads.
FIG9_SIZES = (256, 1024, 4096, 8192, 16384)
PINGS_PER_POINT = 200
#: Fig. 10's PingPong sizes up to 64 KiB.  Every message stays below the
#: 128 KiB of pending data fluid capture needs (``fluid_min_bytes``), so
#: fluid never engages here; the larger sizes run in ``bulk``.
IMB_SIZES = (1, 64, 1024, 4096, 16384, 65536)


def _latency_inputs(rng: random.Random) -> list[dict]:
    sizes = [56] + [round(s * 2 ** rng.uniform(-0.5, 0.0)) for s in FIG9_SIZES]
    points = [
        {
            "key": f"ping.{i}.{config}",
            "fn": "ping",
            "config": config,
            "size": size,
            "count": PINGS_PER_POINT,
        }
        for i, size in enumerate(sizes)
        for config in LATENCY_CONFIGS
    ]
    points += [
        {"key": f"pingpong.{size}.{config}", "fn": "pingpong", "config": config, "size": size}
        for size in IMB_SIZES
        for config in IMB_CONFIGS
    ]
    return points


def _latency_paper_err(values: dict[str, Any]) -> float:
    # Fig. 9 note: "VNET/P-10G ~130 us small-packet RTT, ~3x native; 1G
    # ~2x" (ping.0 is the fixed 56 B payload).  Fig. 10 note: "VNET/P
    # small-message ~55 us (~2.5x native)" (the 1 B PingPong).
    rtt = {c: values[f"ping.0.{c}"]["avg_rtt_us"] for c in LATENCY_CONFIGS}
    one_way = {c: values[f"pingpong.1.{c}"]["one_way_latency_us"] for c in IMB_CONFIGS}
    return _mean([
        _rel_err(rtt["vnetp-10g"], 130.0),
        _rel_err(rtt["vnetp-10g"] / rtt["native-10g"], 3.0),
        _rel_err(rtt["vnetp-1g"] / rtt["native-1g"], 2.0),
        _rel_err(one_way["vnetp-10g"], 55.0),
        _rel_err(one_way["vnetp-10g"] / one_way["native-10g"], 2.5),
    ])


# -- contention: fairness + resilience families --------------------------------

CONTENTION_HORIZON_NS = 14 * MS
CONTENTION_WARMUP_NS = 4 * MS
LOSS_RATES = (0.0, 0.005, 0.01, 0.02, 0.05)
RTT_DELAYS_US = (100, 200, 300)
UDP_FRACTIONS = (0.3, 0.5, 0.8)
GOODPUT_NS = 4 * MS
GOODPUT_CONFIGS = (
    ("clean", "clean", 0.0),
    ("loss 0%", "loss", 0.0),
    ("loss 1%", "loss", 0.01),
    ("loss 5%", "loss", 0.05),
    ("loss 10%", "loss", 0.10),
    ("burst 5%", "burst", 0.05),
)
PARTITION = {
    "horizon_ns": 20 * MS,
    "fail_at_ns": 4 * MS,
    "heal_at_ns": 12 * MS,
    "hb_interval_ns": 250_000,
    "failover_interval_ns": 100_000,
    "failback_backoff_ns": 1_500_000,
    "send_gap_ns": 25_000,
    "payload": 1024,
}
#: Acceptance floors for symmetric flows (the fairness CI job's).
MIN_SYMMETRIC_JFI = 0.95
MIN_SYMMETRIC_UTILIZATION = 0.80


def _mesh(n_hosts: int) -> dict:
    return {"kind": "mesh", "n_hosts": n_hosts}


def _contention_inputs(rng: random.Random) -> list[dict]:
    window = {"horizon_ns": CONTENTION_HORIZON_NS, "warmup_ns": CONTENTION_WARMUP_NS}
    points = [
        {"key": f"fixed_bw.{n}", "fn": "fixed_bw", "label": f"{n} symmetric flows",
         "n_flows": n, **window, "topo": _mesh(n + 1)}
        for n in (2, 4)
    ]
    points += [
        {"key": f"varying_loss.{rate:g}", "fn": "varying_loss", "label": f"loss {rate * 100:g}%",
         "rate": rate, "seed": rng.randrange(1 << 31), **window, "topo": _mesh(2)}
        for rate in LOSS_RATES
    ]
    delays_us = [0] + [rng.choice(RTT_DELAYS_US) for _ in range(3)]
    points += [
        {"key": f"asymmetric_rtt.{i}", "fn": "asymmetric_rtt", "label": f"+{d} us RTT",
         "delay_ns": d * 1_000, **window, "topo": _mesh(3)}
        for i, d in enumerate(delays_us)
    ]
    points += [
        {"key": f"background_udp.{int(frac * 100)}", "fn": "background_udp",
         "label": f"UDP at {int(frac * 100)}% line rate", "udp_fraction": frac,
         "udp_payload": 1400, **window, "topo": _mesh(3)}
        for frac in UDP_FRACTIONS
    ]
    points += [
        {"key": f"goodput.{label}", "fn": "loss_goodput", "label": label, "kind": kind,
         "rate": rate, "seed": rng.randrange(1 << 31), "duration_ns": GOODPUT_NS,
         "topo": _mesh(2)}
        for label, kind, rate in GOODPUT_CONFIGS
    ]
    points.append({"key": "partition", "fn": "partition", **PARTITION, "topo": _mesh(3)})
    return points


# -- mpi: HPCC latency-bandwidth + apps, NAS ------------------------------------

NAS_CELLS = ("is.B.16", "mg.B.16")


def _proc_pair(rng: random.Random) -> tuple[int, int]:
    """One small count from {8, 12} and one large from {20, 24}.

    The two are drawn together (8 with 24, 12 with 20) because a point's
    host cost grows faster than linearly in processes; independent draws
    would swing a pass's host time by a tenth from seed to seed.
    """
    small = rng.choice((8, 12))
    return small, 32 - small


def _mpi_inputs(rng: random.Random) -> list[dict]:
    points = []
    for speed in ("1g", "10g"):
        for procs in _proc_pair(rng):
            for kind in ("native", "vnetp"):
                cfg = f"{kind}-{speed}"
                points.append({"key": f"latbw.p{procs}.{cfg}", "fn": "latbw",
                               "cfg": cfg, "procs": procs})
    for procs in _proc_pair(rng):
        for cfg in ("native-10g", "vnetp-10g"):
            points.append({"key": f"hpcc_apps.p{procs}.{cfg}", "fn": "hpcc_apps",
                           "cfg": cfg, "procs": procs})
    points += [{"key": f"nas.{cell}", "fn": "nas", "cell": cell} for cell in NAS_CELLS]
    return points


def _mpi_paper_err(values: dict[str, Any]) -> float:
    # Fig. 12 note: "1G bw ~ native with 1.2-2x latency; 10G bw 60-75 % of
    # native with 2-3x latency".  Fig. 13 note: "RandomAccess 65-70 % of
    # native, FFT 60-70 %".  A quoted range is scored against its
    # midpoint.  Fig. 14 rows carry the paper's own ratio per cell.
    latbw_anchors = {"1g": (1.0, 1.6), "10g": (0.675, 2.5)}
    errs = []
    for key, row in values.items():
        fn, *rest = key.split(".")
        if fn == "latbw" and rest[1].startswith("vnetp"):
            speed = rest[1].split("-")[1]
            native = values[f"latbw.{rest[0]}.native-{speed}"]
            bw_anchor, lat_anchor = latbw_anchors[speed]
            errs.append(_rel_err(row["pingpong_bw_MBps"] / native["pingpong_bw_MBps"], bw_anchor))
            errs.append(_rel_err(row["pingpong_lat_us"] / native["pingpong_lat_us"], lat_anchor))
        elif fn == "hpcc_apps" and rest[1] == "vnetp-10g":
            native = values[f"hpcc_apps.{rest[0]}.native-10g"]
            errs.append(_rel_err(row["gups"] / native["gups"], 0.675))
            errs.append(_rel_err(row["gflops"] / native["gflops"], 0.65))
        elif fn == "nas":
            errs.append(_rel_err(row["ratio_1g"], row["paper_ratio_1g"]))
            errs.append(_rel_err(row["ratio_10g"], row["paper_ratio_10g"]))
    return _mean(errs)


# -- provision: fat-tree overlays through the public repro.topo API -----------

PROVISION_HOSTS = (256, 768)
PROBE_PAIRS = 3
#: Pings per probe pair.  Only a flow's first packet misses the per-flow
#: cache on each hop, so the hit ratio is (count - 1) / count.
PROBE_COUNT = 20
MIN_PROVISION_HIT_RATIO = 0.9


def fat_tree_pod_size(n_hosts: int) -> int:
    """Compute hosts per pod of ``repro.topo.fat_tree(n_hosts)``.

    The generator picks the smallest even arity ``k`` with ``k**3 / 4 >=
    n_hosts`` and puts ``(k / 2) ** 2`` hosts in each pod, in index order.
    The provision point re-checks every drawn pair against the built
    topology's pod labels, so a mismatch fails the point instead of
    silently probing within a pod.
    """
    k = 2
    while k ** 3 // 4 < n_hosts:
        k += 2
    return (k // 2) ** 2


def _cross_pod_pairs(rng: random.Random, n_hosts: int, count: int) -> list[list[int]]:
    pod = fat_tree_pod_size(n_hosts)
    n_pods = -(-n_hosts // pod)
    pairs = []
    for _ in range(count):
        pa, pb = rng.sample(range(n_pods), 2)
        a = pa * pod + rng.randrange(min(pod, n_hosts - pa * pod))
        b = pb * pod + rng.randrange(min(pod, n_hosts - pb * pod))
        pairs.append([a, b])
    return pairs


def _provision_inputs(rng: random.Random) -> list[dict]:
    return [
        {"key": f"fat-tree.{n}", "fn": "provision", "n_hosts": n,
         "pairs": _cross_pod_pairs(rng, n, PROBE_PAIRS), "probe_count": PROBE_COUNT}
        for n in PROVISION_HOSTS
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("bulk", _bulk_inputs, _bulk_paper_err),
        Workload("latency", _latency_inputs, _latency_paper_err),
        Workload("contention", _contention_inputs),
        Workload("mpi", _mpi_inputs, _mpi_paper_err),
        Workload("provision", _provision_inputs),
    )
}


def inputs(workload: str, seed: int) -> list[dict]:
    """The workload's point inputs for ``seed`` (same seed, same inputs)."""
    return WORKLOADS[workload].make_inputs(random.Random(seed))


def digest(obj: Any) -> str:
    """Short stable hash of a JSON-serialisable object."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# -- output checks ---------------------------------------------------------------


def _finite_positive(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x) and x > 0


def _check_bulk(spec: dict, v: dict, metrics: dict) -> list[str]:
    fails = []
    if v["tcp_bytes"] != spec["tcp_bytes"]:
        fails.append(f"TCP delivered {v['tcp_bytes']} B of {spec['tcp_bytes']} B")
    if not (_finite_positive(v["udp_mbps"]) and v["udp_mbps"] <= v["line_mbps"]):
        fails.append(f"UDP goodput {v['udp_mbps']} Mbps outside (0, {v['line_mbps']}]")
    return fails


def _check_ping(spec: dict, v: dict, metrics: dict) -> list[str]:
    fails = []
    if v["replies"] != spec["count"]:
        fails.append(f"{v['replies']} of {spec['count']} pings answered")
    if not (_finite_positive(v["min_rtt_us"]) and _finite_positive(v["max_rtt_us"])):
        fails.append(f"RTT range [{v['min_rtt_us']}, {v['max_rtt_us']}] us not finite and > 0")
    return fails


def _check_all_positive(spec: dict, v: dict, metrics: dict) -> list[str]:
    return [
        f"{name} = {x} is not finite and > 0"
        for name, x in v.items()
        if isinstance(x, (int, float)) and not isinstance(x, bool) and not _finite_positive(x)
    ]


def _check_fairness(spec: dict, v: dict, metrics: dict) -> list[str]:
    fails = [
        f"{name} = {entry['value']} > 1"
        for name, entry in metrics.items()
        if name.startswith("fairness.") and name.endswith(".utilization_raw")
        and entry["value"] > 1.0
    ]
    if spec["fn"] == "fixed_bw":
        if not v["jfi"] >= MIN_SYMMETRIC_JFI:
            fails.append(f"symmetric JFI {v['jfi']} < {MIN_SYMMETRIC_JFI}")
        if not v["utilization"] >= MIN_SYMMETRIC_UTILIZATION:
            fails.append(f"symmetric utilization {v['utilization']} < "
                         f"{MIN_SYMMETRIC_UTILIZATION}")
    return fails


def _check_partition(spec: dict, v: dict, metrics: dict) -> list[str]:
    # The experiment reports -1 for a repair step that never happened.
    return [
        f"{name} = {v[name]} (not detected)"
        for name in ("detection_ms", "recovery_ms", "failback_ms")
        if not (math.isfinite(v[name]) and v[name] >= 0)
    ]


def _check_provision(spec: dict, v: dict, metrics: dict) -> list[str]:
    fails = []
    if not _finite_positive(v["converged_ns"]):
        fails.append(f"overlay did not converge ({v['converged_ns']})")
    fails += [f"probe RTT {r} ns not finite and > 0" for r in v["rtt_ns"]
              if not _finite_positive(r)]
    if not v["flowcache_hit_ratio"] >= MIN_PROVISION_HIT_RATIO:
        fails.append(f"flow-cache hit ratio {v['flowcache_hit_ratio']} < "
                     f"{MIN_PROVISION_HIT_RATIO}")
    return fails


def _no_check(spec: dict, v: Any, metrics: dict) -> list[str]:
    return []


_CHECKS = {
    "bulk": _check_bulk,
    "ping": _check_ping,
    "pingpong": _check_all_positive,
    "fixed_bw": _check_fairness,
    "varying_loss": _check_fairness,
    "asymmetric_rtt": _check_fairness,
    "background_udp": _check_fairness,
    "loss_goodput": _no_check,
    "partition": _check_partition,
    "latbw": _check_all_positive,
    "hpcc_apps": _check_all_positive,
    "nas": _check_all_positive,
    "provision": _check_provision,
}


def check(spec: dict, value: Any, metrics: dict) -> list[str]:
    """Why one point's output is wrong (empty when it is right).

    ``metrics`` is the point's ``MetricsRegistry`` dump.
    """
    return _CHECKS[spec["fn"]](spec, value, metrics)


def _rel_err(sim: float, anchor: float) -> float:
    return abs(sim - anchor) / anchor


def _mean(xs: list[float]) -> float:
    return sum(xs) / len(xs)
