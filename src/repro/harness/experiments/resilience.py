"""Resilience experiments: overlay behaviour under injected faults.

Two scenario families, both built from :class:`~repro.exec.Point`\\ s so
they parallelize and cache like every other experiment:

* **goodput vs. loss** — a two-host VNET/P testbed running the ttcp UDP
  workload while a :class:`~repro.chaos.FaultSchedule` holds a loss (or
  Gilbert–Elliott burst-loss) window on the sender's physical NIC.  The
  ``loss=0`` row must be bit-identical to the clean row: injectors are
  timing-transparent when they pass a frame, which is what makes the
  same-seed ``determinism-suite`` CI diff meaningful.
* **partition / failover** — a three-host testbed with heartbeats on
  every overlay link, a phi-style failure detector
  (:class:`~repro.vnet.monitor.TrafficMonitor`) and the
  :class:`~repro.vnet.adaptation.AdaptationEngine` failover pass.  A
  bidirectional partition of the h0↔h1 overlay link is injected
  mid-stream; the experiment reports detection time (fault →
  failover action), recovery time (fault → first datagram arriving via
  the h2 waypoint) and failback time after the link heals.

All partition/failover timings are read off the **health log**
(:mod:`repro.obs.health`): the adaptation engine and failure detector
emit timestamped ``HealthEvent``\\ s at the exact virtual instant they
act, and the probe receiver emits ``probe-delivered`` events
(``tests/chaos/test_failover.py`` pins the failover/failback events to
the adaptation engine's action log).  A timeline +
:class:`~repro.obs.health.HeartbeatSilenceDetector`
additionally detects the outage purely from the delivered-probe
counter going quiet (the ``telemetry outage`` column).
"""

from __future__ import annotations

from ... import units
from ...apps.ttcp import run_ttcp_udp
from ...chaos import FaultSchedule
from ...exec import Engine, Point, run_points
from ...obs.context import Observability
from ...obs.health import HeartbeatSilenceDetector
from ...proto.base import Blob
from ...topo import TopoSpec
from ...vnet.adaptation import AdaptationEngine
from ...vnet.heartbeat import HeartbeatService
from ..report import ExperimentResult, Table
from ..testbed import build_topo

__all__ = ["resilience"]

# UDP port for the paced probe stream (clear of VNET encapsulation 5002
# and ttcp 5010).
PROBE_PORT = 5020


def _loss_goodput_point(label: str, kind: str, rate: float, seed: int,
                        duration_ns: int,
                        topo: TopoSpec = TopoSpec(kind="mesh", n_hosts=2)) -> dict:
    """One goodput measurement under a (possibly empty) loss regime.

    ``kind`` is ``"clean"`` (no injector at all), ``"loss"`` (Bernoulli
    at ``rate``) or ``"burst"`` (Gilbert–Elliott with bad-state
    occupancy ≈ ``rate``).  The testbed comes from the declarative
    ``topo`` spec (a plain-data kwarg, so it fingerprints/caches).
    """
    tb = build_topo(topo)
    if kind != "clean":
        sched = FaultSchedule(tb.sim, name="goodput")
        port = tb.hosts[0].nic.tx_port
        if kind == "loss":
            sched.loss(port, start_ns=0, stop_ns=None, rate=rate, seed=seed)
        else:
            # p_gb / (p_gb + p_bg) = rate with mean burst of 20 frames.
            p_bg = 0.05
            p_gb = rate * p_bg / max(1e-9, 1.0 - rate)
            sched.burst(port, start_ns=0, stop_ns=None,
                        p_gb=p_gb, p_bg=p_bg, seed=seed)
        sched.start()
    r = run_ttcp_udp(tb.endpoints[0], tb.endpoints[1], duration_ns=duration_ns)
    return {
        "config": label,
        "gbps": r.gbps,
        "delivered_MB": r.bytes_moved / units.MB,
        "loss_pct": r.loss_fraction * 100.0,
    }


def _partition_failover_point(
    horizon_ns: int,
    fail_at_ns: int,
    heal_at_ns: int,
    hb_interval_ns: int,
    failover_interval_ns: int,
    failback_backoff_ns: int,
    send_gap_ns: int,
    payload: int,
    topo: TopoSpec = TopoSpec(kind="mesh", n_hosts=3),
) -> dict:
    """Kill the h0<->h1 overlay link mid-stream; measure the repair loop."""
    tb = build_topo(topo)
    sim = tb.sim
    obs = Observability.of(sim)
    engine = AdaptationEngine(
        sim, tb.cores, controls=tb.controls,
        failback_backoff_ns=failback_backoff_ns,
    )
    for core in tb.cores:
        HeartbeatService(
            sim, core, interval_ns=hb_interval_ns, until_ns=horizon_ns
        ).start()
    sim.process(
        engine.run_failover(failover_interval_ns, until_ns=horizon_ns),
        name="resilience.failover",
    )
    # Bidirectional partition of the h0<->h1 overlay link, at the
    # bridge's per-link egress filters (the physical net stays up; only
    # this overlay link dies — the failure mode overlays actually see).
    sched = FaultSchedule(sim, name="partition")
    sched.partition(tb.hosts[0].vnet_bridge.link_out("to1"),
                    start_ns=fail_at_ns, stop_ns=heal_at_ns)
    sched.partition(tb.hosts[1].vnet_bridge.link_out("to0"),
                    start_ns=fail_at_ns, stop_ns=heal_at_ns)
    sched.start()

    # Telemetry: a timeline samples the delivered-probe rate, and a
    # silence detector on the same counter flags the outage without any
    # knowledge of routes, links, or the fault schedule.
    probes = obs.metrics.counter("resilience.probes_delivered")
    timeline = obs.timeline
    timeline.counter_rate("resilience.probes_delivered",
                          series="resilience.goodput", unit="pkt/s")
    hub = obs.health
    hub.add(HeartbeatSilenceDetector(
        "resilience.probe-silence", hub.log, probes, windows=2))
    hub.attach_to(timeline)
    timeline.start(until_ns=horizon_ns)

    arrivals: list[int] = []
    sent = [0]
    stop_tx_ns = horizon_ns - 2 * units.MS
    src, dst = tb.endpoints[0], tb.endpoints[1]

    def rx():
        sock = dst.stack.udp_socket(PROBE_PORT)
        while True:
            yield from sock.recv()
            arrivals.append(sim.now)
            probes.inc()
            hub.log.emit(sim.now, "resilience.rx", "probe-delivered")

    def tx():
        sock = src.stack.udp_socket()
        yield sim.timeout(500_000)
        while sim.now < stop_tx_ns:
            yield from sock.sendto(Blob(payload), dst.ip, PROBE_PORT)
            sent[0] += 1
            yield sim.timeout(send_gap_ns)

    sim.process(rx(), name="resilience.rx")
    sim.process(tx(), name="resilience.tx")
    sim.run()

    # Timings read off the health log alone.
    log = hub.log
    fo_ev = log.first("failover")
    fb_ev = log.first("failback")
    failover_at = fo_ev.t_ns if fo_ev is not None else None
    failback_at = fb_ev.t_ns if fb_ev is not None else None
    rec_ev = (log.first("probe-delivered", after_ns=failover_at)
              if failover_at is not None else None)
    recovery_at = rec_ev.t_ns if rec_ev is not None else None

    detection_ms = ((failover_at - fail_at_ns) / units.MS
                    if failover_at is not None else -1.0)
    recovery_ms = ((recovery_at - fail_at_ns) / units.MS
                   if recovery_at is not None else -1.0)
    failback_ms = ((failback_at - heal_at_ns) / units.MS
                   if failback_at is not None else -1.0)
    silence_ev = log.first("heartbeat-silence", after_ns=fail_at_ns)
    telemetry_ms = ((silence_ev.t_ns - fail_at_ns) / units.MS
                    if silence_ev is not None else -1.0)
    return {
        "config": "partition h0<->h1",
        "detection_ms": detection_ms,
        "recovery_ms": recovery_ms,
        "failback_ms": failback_ms,
        "telemetry_outage_ms": telemetry_ms,
        "waypoint_pkts": tb.cores[2].pkts_to_bridge,
        "delivered_pct": 100.0 * len(arrivals) / max(1, sent[0]),
        "health_events": len(log),
    }


def resilience(quick: bool = False, engine: Engine | None = None) -> ExperimentResult:
    """Overlay resilience: goodput under loss + failover after partition."""
    duration = (4 if quick else 12) * units.MS
    loss_configs = [
        ("clean", "clean", 0.0),
        ("loss 0%", "loss", 0.0),
        ("loss 1%", "loss", 0.01),
        ("loss 5%", "loss", 0.05),
        ("loss 10%", "loss", 0.10),
        ("burst 5%", "burst", 0.05),
    ]
    points = [
        Point(
            "resilience",
            f"goodput.{label}",
            _loss_goodput_point,
            {"label": label, "kind": kind, "rate": rate, "seed": 1009,
             "duration_ns": duration, "topo": TopoSpec(kind="mesh", n_hosts=2)},
        )
        for label, kind, rate in loss_configs
    ]
    horizon = (20 if quick else 30) * units.MS
    points.append(
        Point(
            "resilience",
            "partition",
            _partition_failover_point,
            {
                "horizon_ns": horizon,
                "fail_at_ns": 4 * units.MS,
                "heal_at_ns": 12 * units.MS,
                "hb_interval_ns": 250_000,
                "failover_interval_ns": 100_000,
                "failback_backoff_ns": 1_500_000,
                "send_gap_ns": 25_000 if quick else 10_000,
                "payload": 1024,
                "topo": TopoSpec(kind="mesh", n_hosts=3),
            },
        )
    )
    rows = run_points(points, engine)

    goodput_table = Table(
        ["configuration", "udp goodput (Gbps)", "delivered (MB)", "loss (%)"],
        title="UDP goodput vs injected loss (VNET/P, 10G)",
    )
    partition_table = Table(
        ["scenario", "detection (ms)", "recovery (ms)", "failback (ms)",
         "telemetry outage (ms)", "waypoint pkts", "delivered (%)"],
        title="Overlay partition: detection, failover, failback",
    )
    result = ExperimentResult(
        "resilience", "overlay behaviour under injected faults",
        tables=[goodput_table, partition_table],
    )
    for row in rows:
        if "gbps" in row:
            goodput_table.add(row["config"], row["gbps"],
                              row["delivered_MB"], row["loss_pct"])
        else:
            partition_table.add(row["config"], row["detection_ms"],
                                row["recovery_ms"], row["failback_ms"],
                                row["telemetry_outage_ms"],
                                row["waypoint_pkts"], row["delivered_pct"])
        result.rows.append(row)
    result.notes.append(
        "the clean and loss-0% rows are bit-identical by construction: "
        "injectors are timing-transparent when they pass a frame"
    )
    result.notes.append(
        "partition detection = phi-accrual heartbeat timeout; recovery = "
        "first datagram delivered via the h2 waypoint after rerouting"
    )
    result.notes.append(
        "partition timings are read off obs.health events; telemetry "
        "outage = HeartbeatSilenceDetector on the delivered-probe counter"
    )
    return result
