"""Fairness experiments: competing Reno flows over a shared bottleneck.

The congestion-control counterpart to the resilience family: instead of
asking "does the overlay survive faults?", this family asks "does the
Reno machinery (:mod:`repro.proto.tcp`) share a bottleneck the way TCP
should?".  Four scenarios, all over a VNET/P mesh whose hosts carry the
paper's 1 Gbps Broadcom NICs so the receiving host's access link is a
genuine tail-drop bottleneck:

* **fixed-bandwidth utilization** — two (and four) symmetric flows from
  distinct source hosts into one sink host.  Scored with Jain's
  Fairness Index over per-flow goodputs plus bottleneck utilization
  (:mod:`repro.obs.fairness`); ``tests/harness/test_fairness_family.py``
  pins JFI ≥ 0.95 and utilization ≥ 0.80.
* **varying-loss goodput** — one flow under Bernoulli loss windows of
  increasing rate: goodput must degrade monotonically-ish and the
  retransmit counters must show fast retransmits doing the work (RTO
  recoveries stay rare until loss is heavy).
* **asymmetric RTT** — two symmetric flows, but one sender's delivery
  path gains a fixed :class:`~repro.chaos.DelayStage` latency, so its
  RTT is strictly longer.  Reno's window dynamics favour the short-RTT
  flow; the JFI lands below the symmetric case but must stay finite and
  bit-reproducible.
* **background UDP** — one Reno flow sharing the sink link with a paced
  constant-rate UDP blast that does not back off.  TCP keeps the
  leftover share; JFI is computed across both flows.

Per-flow goodputs are measured at the receivers (delivered in-order
bytes) over a window that starts after a warmup, so slow-start
transients do not dilute steady-state utilization.  Every scenario
publishes ``fairness.<scenario>.{jfi,utilization,utilization_raw,
utilization_estimated,score}`` gauges, which ride the experiment
engine's metrics capture into CI diffs and
:class:`~repro.obs.runinfo.RunArtifact` bundles.  Under ``REPRO_FLUID=1``
the background-UDP scenario's raw utilization can exceed 1.0 (the fluid
model over-grants the captured flow because it cannot see packet-level
UDP sharing the link); the published utilization is clamped and the
``estimated`` flag marks those rows.
"""

from __future__ import annotations

from ... import units
from ...chaos import DelayStage, FaultSchedule
from ...config import BROADCOM_1G
from ...exec import Engine, Point, run_points
from ...obs.context import Observability
from ...obs.fairness import publish_fairness, score_flows
from ...proto.base import Blob
from ...topo import TopoSpec
from ..report import ExperimentResult, Table
from ..testbed import build_topo

__all__ = ["fairness"]

# TCP flow i listens on FLOW_PORT_BASE + i on the sink; the UDP blast
# uses UDP_PORT.  Clear of encap (5002), ttcp (5010), probes (5020).
FLOW_PORT_BASE = 5100
UDP_PORT = 5130

#: Line rate of the shared access link every scenario contends for.
BOTTLENECK_BPS = BROADCOM_1G.rate_bps


def _run_competing_flows(
    tb,
    flow_pairs,
    horizon_ns: int,
    warmup_ns: int,
    udp_pairs=(),
    udp_gap_ns: int = 0,
    udp_payload: int = 1400,
):
    """Run TCP flows (src_idx, dst_idx) + optional paced UDP blasts.

    Returns ``(tcp_bytes, udp_bytes)``: per-flow bytes delivered inside
    the ``[warmup_ns, horizon_ns]`` measurement window, in ``flow_pairs``
    order then ``udp_pairs`` order.
    """
    sim = tb.sim
    server_conns: dict[int, object] = {}
    udp_counts = [0] * len(udp_pairs)

    def server(dst, port, key):
        listener = dst.stack.tcp_listen(port)
        conn = yield from listener.accept()
        server_conns[key] = conn
        while True:
            yield from conn.recv(1 << 30)

    def client(src, dst, port):
        conn = yield from src.stack.tcp_connect(dst.ip, port)
        while True:
            yield from conn.send(256 * units.KIB)

    for i, (s, d) in enumerate(flow_pairs):
        src, dst = tb.endpoints[s], tb.endpoints[d]
        port = FLOW_PORT_BASE + i
        sim.process(server(dst, port, i), name=f"fair.server.{i}")
        sim.process(client(src, dst, port), name=f"fair.client.{i}")

    def udp_rx(dst, port, key):
        sock = dst.stack.udp_socket(port)
        while True:
            yield from sock.recv()
            if sim.now >= warmup_ns:
                udp_counts[key] += udp_payload

    def udp_tx(src, dst, port):
        sock = src.stack.udp_socket()
        while True:
            yield from sock.sendto(Blob(udp_payload), dst.ip, port)
            if udp_gap_ns:
                yield sim.timeout(udp_gap_ns)

    for i, (s, d) in enumerate(udp_pairs):
        src, dst = tb.endpoints[s], tb.endpoints[d]
        sim.process(udp_rx(dst, UDP_PORT + i, i), name=f"fair.udp-rx.{i}")
        sim.process(udp_tx(src, dst, UDP_PORT + i), name=f"fair.udp-tx.{i}")

    baseline: dict[int, int] = {}

    def sampler():
        yield sim.timeout(warmup_ns)
        for key, conn in server_conns.items():
            baseline[key] = conn.bytes_delivered

    sim.process(sampler(), name="fair.sampler")
    sim.run(until=sim.timeout(horizon_ns))

    tcp_bytes = [
        server_conns[i].bytes_delivered - baseline.get(i, 0)
        if i in server_conns
        else 0
        for i in range(len(flow_pairs))
    ]
    return tcp_bytes, list(udp_counts)


def _fixed_bw_point(
    label: str,
    n_flows: int,
    horizon_ns: int,
    warmup_ns: int,
    topo: TopoSpec,
) -> dict:
    """``n_flows`` symmetric Reno flows into one sink host; JFI + utilization."""
    tb = build_topo(topo, nic_params=BROADCOM_1G)
    sink = topo.n_hosts - 1
    pairs = [(i, sink) for i in range(n_flows)]
    tcp_bytes, _ = _run_competing_flows(tb, pairs, horizon_ns, warmup_ns)
    window = horizon_ns - warmup_ns
    score = publish_fairness(
        Observability.of(tb.sim).metrics,
        score_flows(f"fixed_bw.{n_flows}", tcp_bytes, window, BOTTLENECK_BPS),
    )
    return {
        "config": label,
        "flows": n_flows,
        "per_flow_mbps": [round(b * 8e3 / window, 1) for b in tcp_bytes],
        "jfi": score.jfi,
        "utilization": score.utilization,
        "score": score.score,
    }


def _varying_loss_point(
    label: str,
    rate: float,
    seed: int,
    horizon_ns: int,
    warmup_ns: int,
    topo: TopoSpec,
) -> dict:
    """One Reno flow under Bernoulli loss; goodput + recovery counters."""
    tb = build_topo(topo, nic_params=BROADCOM_1G)
    if rate > 0.0:
        sched = FaultSchedule(tb.sim, name="fairness-loss")
        sched.loss(tb.hosts[0].nic.tx_port, start_ns=0, stop_ns=None,
                   rate=rate, seed=seed)
        sched.start()
    tcp_bytes, _ = _run_competing_flows(tb, [(0, 1)], horizon_ns, warmup_ns)
    window = horizon_ns - warmup_ns
    score = publish_fairness(
        Observability.of(tb.sim).metrics,
        score_flows(f"varying_loss.{label}", tcp_bytes, window, BOTTLENECK_BPS),
    )
    conns = [
        c
        for ep in tb.endpoints
        for c in ep.stack._tcp_conns.values()
        if c.remote_port == FLOW_PORT_BASE  # sender side only
    ]
    fast = sum(c.fast_retransmits for c in conns)
    retx = sum(c.retransmits for c in conns)
    return {
        "config": label,
        "loss_pct": rate * 100.0,
        "goodput_mbps": tcp_bytes[0] * 8e3 / window,
        "utilization": score.utilization,
        "fast_retransmits": fast,
        "retransmits": retx,
    }


def _asymmetric_rtt_point(
    label: str,
    delay_ns: int,
    horizon_ns: int,
    warmup_ns: int,
    topo: TopoSpec,
) -> dict:
    """Two flows, one with ``delay_ns`` extra on its delivery path."""
    tb = build_topo(topo, nic_params=BROADCOM_1G)
    if delay_ns > 0:
        # Everything delivered *to* h1 (the long-RTT sender) — i.e. its
        # returning ACK stream — arrives delay_ns late, lengthening that
        # flow's control loop without touching the shared data direction.
        DelayStage(tb.sim, delay_ns=delay_ns).install(tb.hosts[1].nic.rx_port)
    sink = topo.n_hosts - 1
    tcp_bytes, _ = _run_competing_flows(tb, [(0, sink), (1, sink)],
                                        horizon_ns, warmup_ns)
    window = horizon_ns - warmup_ns
    score = publish_fairness(
        Observability.of(tb.sim).metrics,
        score_flows(f"asymmetric_rtt.{label}", tcp_bytes, window, BOTTLENECK_BPS),
    )
    return {
        "config": label,
        "rtt_delta_us": delay_ns / 1_000.0,
        "per_flow_mbps": [round(b * 8e3 / window, 1) for b in tcp_bytes],
        "jfi": score.jfi,
        "utilization": score.utilization,
        "score": score.score,
    }


def _background_udp_point(
    label: str,
    udp_fraction: float,
    udp_payload: int,
    horizon_ns: int,
    warmup_ns: int,
    topo: TopoSpec,
) -> dict:
    """One Reno flow vs a paced UDP blast at ``udp_fraction`` of line rate."""
    tb = build_topo(topo, nic_params=BROADCOM_1G)
    sink = topo.n_hosts - 1
    gap_ns = (
        int(udp_payload * 8 * 1e9 / (udp_fraction * BOTTLENECK_BPS))
        if udp_fraction > 0.0
        else 0
    )
    tcp_bytes, udp_bytes = _run_competing_flows(
        tb, [(0, sink)], horizon_ns, warmup_ns,
        udp_pairs=[(1, sink)], udp_gap_ns=gap_ns, udp_payload=udp_payload,
    )
    window = horizon_ns - warmup_ns
    flows = [tcp_bytes[0], udp_bytes[0]]
    score = publish_fairness(
        Observability.of(tb.sim).metrics,
        score_flows(f"background_udp.{label}", flows, window, BOTTLENECK_BPS),
    )
    return {
        "config": label,
        "udp_offered_pct": udp_fraction * 100.0,
        "tcp_mbps": tcp_bytes[0] * 8e3 / window,
        "udp_mbps": udp_bytes[0] * 8e3 / window,
        "jfi": score.jfi,
        "utilization": score.utilization,
        "utilization_estimated": score.utilization_estimated,
        "score": score.score,
    }


def fairness(quick: bool = False, engine: Engine | None = None) -> ExperimentResult:
    """Reno fairness: utilization, loss response, RTT bias, UDP interference."""
    horizon = (24 if quick else 60) * units.MS
    warmup = (6 if quick else 12) * units.MS

    def mesh(n: int) -> TopoSpec:
        return TopoSpec(kind="mesh", n_hosts=n)

    points = [
        Point(
            "fairness",
            f"fixed_bw.{n}",
            _fixed_bw_point,
            {"label": f"{n} symmetric flows", "n_flows": n,
             "horizon_ns": horizon, "warmup_ns": warmup,
             "topo": mesh(n + 1)},
        )
        for n in ((2,) if quick else (2, 4))
    ]
    loss_rates = (0.0, 0.005, 0.02) if quick else (0.0, 0.005, 0.01, 0.02, 0.05)
    points += [
        Point(
            "fairness",
            f"varying_loss.{rate:g}",
            _varying_loss_point,
            {"label": f"loss {rate * 100:g}%", "rate": rate, "seed": 2027,
             "horizon_ns": horizon, "warmup_ns": warmup, "topo": mesh(2)},
        )
        for rate in loss_rates
    ]
    points += [
        Point(
            "fairness",
            f"asymmetric_rtt.{delay_us}us",
            _asymmetric_rtt_point,
            {"label": f"+{delay_us} us RTT", "delay_ns": delay_us * 1_000,
             "horizon_ns": horizon, "warmup_ns": warmup, "topo": mesh(3)},
        )
        for delay_us in ((0, 200) if quick else (0, 100, 200, 400))
    ]
    points += [
        Point(
            "fairness",
            f"background_udp.{int(frac * 100)}",
            _background_udp_point,
            {"label": f"UDP at {int(frac * 100)}% line rate",
             "udp_fraction": frac, "udp_payload": 1400,
             "horizon_ns": horizon, "warmup_ns": warmup, "topo": mesh(3)},
        )
        for frac in ((0.5,) if quick else (0.3, 0.5, 0.8))
    ]
    rows = run_points(points, engine)

    bw_table = Table(
        ["configuration", "per-flow (Mbps)", "JFI", "utilization", "score"],
        title="Fixed bandwidth: symmetric Reno flows into one 1G sink",
    )
    loss_table = Table(
        ["configuration", "goodput (Mbps)", "utilization",
         "fast rtx", "total rtx"],
        title="Varying loss: single-flow Reno goodput (1G, Bernoulli loss)",
    )
    rtt_table = Table(
        ["configuration", "per-flow (Mbps)", "JFI", "utilization", "score"],
        title="Asymmetric RTT: short- vs long-control-loop Reno flows",
    )
    udp_table = Table(
        ["configuration", "tcp (Mbps)", "udp (Mbps)", "JFI", "utilization",
         "est?"],
        title="Background UDP: Reno sharing the sink link with a paced blast",
    )
    result = ExperimentResult(
        "fairness", "Reno congestion control under contention",
        tables=[bw_table, loss_table, rtt_table, udp_table],
    )
    for row in rows:
        if "flows" in row:
            bw_table.add(row["config"], "/".join(map(str, row["per_flow_mbps"])),
                         row["jfi"], row["utilization"], row["score"])
        elif "loss_pct" in row:
            loss_table.add(row["config"], row["goodput_mbps"],
                           row["utilization"], row["fast_retransmits"],
                           row["retransmits"])
        elif "rtt_delta_us" in row:
            rtt_table.add(row["config"], "/".join(map(str, row["per_flow_mbps"])),
                          row["jfi"], row["utilization"], row["score"])
        else:
            udp_table.add(row["config"], row["tcp_mbps"], row["udp_mbps"],
                          row["jfi"], row["utilization"],
                          "yes" if row["utilization_estimated"] else "no")
        result.rows.append(row)
    result.notes.append(
        "goodputs are measured at the receivers over the post-warmup "
        "window, so slow start does not dilute steady-state utilization"
    )
    result.notes.append(
        "JFI = (Σx)²/(n·Σx²) over per-flow goodputs; score = JFI × "
        "bottleneck utilization (repro.obs.fairness); the tier-1 fairness "
        "family test pins symmetric JFI ≥ 0.95 and utilization ≥ 0.80"
    )
    result.notes.append(
        "the asymmetric-RTT rows use chaos.DelayStage on the long flow's "
        "ACK path: deterministic added latency, not reordering"
    )
    return result
