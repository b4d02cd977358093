"""Command-line experiment runner.

Usage::

    python -m repro list                 # show available experiments
    python -m repro fig08                # run one experiment (full size)
    python -m repro fig08 --quick        # reduced, same-shape version
    python -m repro all --quick          # everything
    python -m repro all --quick --jobs 4 # fan points out over 4 worker
                                         # processes (row-identical)
    python -m repro fig14 --no-cache     # force recomputation
    python -m repro resilience --quick   # chaos/fault-injection family:
                                         # goodput under loss, partition
                                         # detection + failover timing
    python -m repro obs                  # record a ping, print the span
                                         # breakdown, optionally export
                                         # Chrome/JSONL traces
    python -m repro obs report           # sample time-series + per-flow
                                         # latency over a ttcp stream;
                                         # export CSV / Chrome counters /
                                         # run artifact
    python -m repro obs profile          # sample the fig8 ttcp pair's
                                         # wall time per layer; flamegraph
                                         # + JSON exports
    python -m repro obs diff A.json B.json   # structurally compare two
                                         # RunArtifact bundles (exact or
                                         # tolerance mode); exit 0 when
                                         # identical/equivalent
    python -m repro fig08 --artifact-out run.json   # write the run's
                                         # RunArtifact (rows, metrics,
                                         # timelines, health, fairness)

Results are cached on disk (``--cache-dir``, default
``results/.cache``) keyed by experiment point + configuration + code
version; a re-run of an unchanged tree answers every point from the
cache.  The final ``[exec] points=... executed=... cached=...`` line
reports what actually ran.
"""

from __future__ import annotations

import argparse
import sys
import time


def _run_obs(argv: list[str]) -> int:
    """The ``obs`` subcommand: record spans on a 1-hop VNET/P ping.

    Builds a noise-free two-host VNET/P testbed, pings with span
    recording on, and prints the measured per-stage latency breakdown
    next to the analytic model (they agree to the nanosecond on this
    configuration).  ``--chrome``/``--jsonl`` export the recording.
    """
    from .apps.ping import run_ping
    from .config import NETEFFECT_10G, BROADCOM_1G, OsNoiseParams, default_host
    from .harness.breakdown import render, total_ns, vnetp_one_way_breakdown
    from .harness.testbed import build_vnetp
    from .obs.breakdown import recorded_one_way_breakdown, render_recorded
    from .obs.context import Observability
    from .obs.exporters import export_chrome_trace, export_jsonl

    parser = argparse.ArgumentParser(
        prog="python -m repro obs",
        description="Record per-packet spans on a 1-hop VNET/P ping.",
    )
    parser.add_argument("--pings", type=int, default=3, help="ping count (default 3)")
    parser.add_argument("--payload", type=int, default=56, help="ICMP payload bytes")
    parser.add_argument(
        "--nic", choices=["10g", "1g"], default="10g", help="physical NIC model"
    )
    parser.add_argument("--chrome", metavar="PATH", help="write a Chrome trace_event file")
    parser.add_argument("--jsonl", metavar="PATH", help="write the spans as JSON Lines")
    args = parser.parse_args(argv)
    if args.pings < 1:
        parser.error("--pings must be >= 1")

    nic = NETEFFECT_10G if args.nic == "10g" else BROADCOM_1G
    host = default_host().with_(noise=OsNoiseParams(jitter_max_ns=0))
    tb = build_vnetp(nic_params=nic, host_params=host)
    obs = Observability.of(tb.sim)
    obs.spans.enabled = True
    result = run_ping(
        tb.endpoints[0], tb.endpoints[1], data_size=args.payload, count=args.pings
    )
    src, dst = tb.endpoints[0].stack.name, tb.endpoints[1].stack.name
    stages = recorded_one_way_breakdown(obs.spans, src, dst, nth=-1)
    print(f"== recorded one-way breakdown ({args.nic}, {args.payload} B ICMP) ==\n")
    print(render_recorded(stages))
    recorded = sum(s.ns for s in stages)
    analytic = total_ns(vnetp_one_way_breakdown(nic, payload=args.payload, host=host))
    print(
        f"\nrecorded {recorded / 1000:.2f} us vs analytic {analytic / 1000:.2f} us "
        f"(delta {recorded - analytic} ns); ping RTT avg {result.avg_rtt_us:.2f} us"
    )
    if args.payload == 56:
        print("\n== analytic model for comparison ==\n")
        print(render(vnetp_one_way_breakdown(nic, payload=args.payload, host=host)))
    if args.chrome:
        export_chrome_trace(obs.spans.spans, args.chrome)
        print(f"\nwrote Chrome trace_event file: {args.chrome} "
              f"({len(obs.spans.spans)} spans; open in chrome://tracing or Perfetto)")
    if args.jsonl:
        with open(args.jsonl, "w", encoding="utf-8") as fp:
            export_jsonl(obs.spans.spans, fp)
        print(f"wrote JSONL span dump: {args.jsonl}")
    return 0


def _run_obs_report(argv: list[str]) -> int:
    """The ``obs report`` subcommand: the time-dimension of observability.

    Runs a two-host VNET/P ttcp UDP stream with span recording on and a
    timeline sampling packet rate, dispatcher/ring occupancy (time-
    weighted), and the live p99 flow latency; prints the time-series
    summary, the per-flow latency table with critical-path attribution,
    and the health log of an attached goodput-collapse detector.
    ``--csv``/``--chrome``/``--artifact-out`` export the timeline as CSV,
    a Chrome trace (spans + counter events merged), and a ``report``
    :class:`~repro.obs.runinfo.RunArtifact` (metrics, timelines, health)
    that ``obs diff`` compares like any experiment run's.
    """
    import json

    from . import units
    from .apps.ttcp import run_ttcp_udp
    from .harness.testbed import build_vnetp
    from .obs.context import Observability, capture_run
    from .obs.exporters import chrome_trace, normalize_metrics_dump
    from .obs.flows import (
        assemble_packet_records,
        flow_summaries,
        register_latency_series,
        render_flow_report,
    )
    from .obs.health import GoodputCollapseDetector
    from .obs.runinfo import RunArtifact, fairness_scores, run_config

    parser = argparse.ArgumentParser(
        prog="python -m repro obs report",
        description="Sample time-series and per-flow latency over a ttcp run.",
    )
    parser.add_argument("--duration-ms", type=float, default=2.0,
                        help="virtual stream duration (default 2.0)")
    parser.add_argument("--interval-us", type=float, default=50.0,
                        help="sampling window (default 50.0)")
    parser.add_argument("--csv", metavar="PATH", help="write the timeline as CSV")
    parser.add_argument("--chrome", metavar="PATH",
                        help="write a Chrome trace (spans + counter events)")
    parser.add_argument("--artifact-out", metavar="PATH",
                        help="write the run's RunArtifact bundle as JSON")
    args = parser.parse_args(argv)
    if args.duration_ms <= 0:
        parser.error("--duration-ms must be positive")
    if args.interval_us <= 0:
        parser.error("--interval-us must be positive")

    duration_ns = int(args.duration_ms * units.MS)
    with capture_run() as capture:
        tb = build_vnetp(n_hosts=2)
        obs = Observability.of(tb.sim)
        obs.spans.enabled = True
        timeline = obs.timeline
        timeline.interval_ns = int(args.interval_us * 1000)
        timeline.counter_rate("vnet.core.h0.pkts_from_guest",
                              series="vnet.h0.pkt_rate", unit="pkt/s")
        timeline.gauge_value("vnet.core.h1.rxq_depth",
                             series="vnet.h1.rxq_depth", time_avg=True, unit="pkt")
        pkt_rate = timeline.series["vnet.h0.pkt_rate"]
        latency = register_latency_series(timeline, obs.spans, q=99.0)
        # Per-window flow-cache hit rate, one series per VNET/P host
        # (repro.vnet.flowcache).
        flowcaches = [h.vnet_core.flowcache for h in tb.hosts
                      if h.vnet_core is not None]
        for cache in flowcaches:
            cache.register_hit_rate(timeline)
        hub = obs.health
        hub.add(GoodputCollapseDetector("obs.report.goodput", hub.log, pkt_rate))
        hub.attach_to(timeline)
        timeline.start(until_ns=duration_ns)
        result = run_ttcp_udp(tb.endpoints[0], tb.endpoints[1],
                              duration_ns=duration_ns)

    print(timeline.render(f"ttcp UDP, {args.duration_ms:g} ms"))
    records = assemble_packet_records(obs.spans.spans)
    print()
    print(render_flow_report(flow_summaries(records)))
    print(f"\nttcp goodput {result.gbps:.2f} Gbps; "
          f"{len(records)} packet records from {len(obs.spans.spans)} spans; "
          f"{len(latency)} latency samples")
    if flowcaches:
        rates = ", ".join(
            f"{c.core.host.name} {c.hit_rate:.1%} ({c.hits} hits)"
            for c in flowcaches
        )
        print(f"flow-cache hit rate: {rates} "
              f"(per-window series vnet.flowcache.<host>.hit_rate above; "
              f"counters under vnet.flowcache.* in --artifact-out)")
    if hub.log.events:
        print()
        print(hub.log.render())
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fp:
            fp.write(timeline.to_csv())
        print(f"\nwrote timeline CSV: {args.csv}")
    if args.chrome:
        trace = chrome_trace(obs.spans.spans)
        trace["traceEvents"].extend(timeline.chrome_counter_events())
        with open(args.chrome, "w", encoding="utf-8") as fp:
            json.dump(trace, fp, indent=1)
        print(f"wrote Chrome trace (spans + counters): {args.chrome}")
    if args.artifact_out:
        run = capture.dump()
        metrics = normalize_metrics_dump(run["metrics"])
        RunArtifact(
            kind="report",
            config=run_config({"duration_ms": args.duration_ms,
                               "interval_us": args.interval_us}),
            metrics=metrics,
            timelines=run["timelines"],
            health=run["health"],
            fairness=fairness_scores(metrics),
        ).save(args.artifact_out)
        print(f"wrote run artifact: {args.artifact_out}")
    return 0


def _run_obs_profile(argv: list[str]) -> int:
    """The ``obs profile`` subcommand: where the simulator's wall time goes.

    Runs the fig8 ttcp pair (TCP bulk transfer, then UDP goodput — the
    same workload CI's sampler-overhead gate times) inside one
    :class:`~repro.obs.profile.Sampler` and prints samples and share per
    layer, the kernel events processed and events/s, and the flow-cache
    and fluid counts read from each simulation's metrics.
    ``--collapsed``/``--json`` export flamegraph collapsed stacks
    (``flamegraph.pl`` / speedscope input) and the report as JSON.
    """
    import json
    from pathlib import Path

    from . import units
    from .apps.ttcp import run_ttcp_tcp, run_ttcp_udp
    from .config import NETEFFECT_10G
    from .harness.testbed import build_vnetp
    from .obs.context import Observability
    from .obs.profile import INTERVAL_S, LAYERS, OTHER, Sampler, shares

    parser = argparse.ArgumentParser(
        prog="python -m repro obs profile",
        description="Sample the simulator's wall time per layer on the "
                    "fig8 ttcp workload.",
    )
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized workload (10 MB TCP / 8 ms UDP "
                             "instead of 40 MB / 20 ms)")
    parser.add_argument("--collapsed", metavar="PATH",
                        help="write collapsed stacks (flamegraph.pl input)")
    parser.add_argument("--json", metavar="PATH",
                        help="write the profile report as JSON")
    args = parser.parse_args(argv)

    total_bytes, udp_ns = (
        (10 * units.MB, 8 * units.MS) if args.quick
        else (40 * units.MB, 20 * units.MS)
    )
    sampler = Sampler(Path(__file__).resolve().parents[1])
    wall0 = time.perf_counter()
    with sampler:
        tb = build_vnetp(nic_params=NETEFFECT_10G)
        r_tcp = run_ttcp_tcp(tb.endpoints[0], tb.endpoints[1], total_bytes=total_bytes)
        tb2 = build_vnetp(nic_params=NETEFFECT_10G)
        r_udp = run_ttcp_udp(tb2.endpoints[0], tb2.endpoints[1], duration_ns=udp_ns)
    wall_s = time.perf_counter() - wall0

    events = tb.sim.events_processed + tb2.sim.events_processed
    annotations = dict.fromkeys(
        ("flowcache_hits", "flowcache_misses",
         "fluid_captures", "fluid_strides", "fluid_bytes"), 0)
    for sim in (tb.sim, tb2.sim):
        metrics = Observability.of(sim).metrics
        for name, value in metrics.snapshot("vnet.flowcache.").items():
            kind = name.rsplit(".", 1)[1]
            if kind in ("hits", "misses"):
                annotations["flowcache_" + kind] += value
        fluid = metrics.snapshot("sim.fluid.")
        for kind in ("captures", "strides", "bytes"):
            annotations["fluid_" + kind] += fluid.get("sim.fluid." + kind, 0)
    share = shares(sampler.counts)
    samples = sum(sampler.counts.values())

    print(f"== obs profile: fig8 ttcp pair "
          f"({total_bytes // units.MB} MB TCP + {udp_ns // units.MS} ms UDP), "
          f"{samples} samples every {INTERVAL_S * 1e3:g} ms ==\n")
    print(f"{'layer':16} {'samples':>8} {'share':>7}")
    for layer in (*LAYERS, OTHER):
        print(f"{layer:16} {sampler.counts[layer]:8d} {share[layer]:7.1%}")
    print(f"\n{events:,} kernel events in {wall_s:.2f} s wall "
          f"({events / wall_s:,.0f} events/s)")
    print("annotations: " + ", ".join(f"{k}={v}" for k, v in annotations.items()))
    print(f"tcp {r_tcp.gbps:.2f} Gbps, udp {r_udp.gbps:.2f} Gbps "
          f"(simulated observables; sampling never changes them)")
    if args.collapsed:
        with open(args.collapsed, "w", encoding="utf-8") as fp:
            fp.write(sampler.collapsed())
        print(f"\nwrote collapsed stacks: {args.collapsed} "
              f"(flamegraph.pl or speedscope)")
    if args.json:
        report = {
            "interval_s": INTERVAL_S,
            "wall_s": wall_s,
            "events": events,
            "events_per_s": events / wall_s,
            "samples": {layer: sampler.counts[layer] for layer in (*LAYERS, OTHER)},
            "shares": share,
            "annotations": annotations,
        }
        with open(args.json, "w", encoding="utf-8") as fp:
            json.dump(report, fp, indent=1, sort_keys=True)
        print(f"wrote profile report JSON: {args.json}")
    return 0


def _run_obs_diff(argv: list[str]) -> int:
    """The ``obs diff`` subcommand: compare two RunArtifact bundles.

    Exit status: 0 when the verdict is ``identical`` or ``equivalent``,
    1 when ``different``, 2 when the inputs are unusable (unreadable
    file, invalid JSON, mismatched artifact schemas, bad section name).
    """
    import json

    from .obs.compare import DEFAULT_SECTIONS, diff_artifacts
    from .obs.runinfo import RunArtifact

    parser = argparse.ArgumentParser(
        prog="python -m repro obs diff",
        description="Structurally compare two RunArtifact JSON bundles.",
    )
    parser.add_argument("a", metavar="A.json", help="first artifact")
    parser.add_argument("b", metavar="B.json", help="second artifact")
    parser.add_argument("--mode", choices=["exact", "tolerance"], default="exact",
                        help="exact = same-seed determinism check; tolerance "
                             "= numeric leaves may differ within --rel-tol/"
                             "--abs-tol (fluid/ablation A/Bs)")
    parser.add_argument("--rel-tol", type=float, default=0.02,
                        help="relative tolerance in tolerance mode (default 0.02)")
    parser.add_argument("--abs-tol", type=float, default=0.0,
                        help="absolute tolerance in tolerance mode (default 0)")
    parser.add_argument("--sections", metavar="S1,S2",
                        help="comma-separated sections to compare (default "
                             f"{','.join(DEFAULT_SECTIONS)})")
    parser.add_argument("--ignore", action="append", default=[], metavar="GLOB",
                        help="ignore leaf paths matching this fnmatch pattern "
                             "(repeatable; metrics.exec.points.wall_s* is "
                             "always ignored)")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the full verdict as JSON")
    args = parser.parse_args(argv)

    try:
        art_a = RunArtifact.load(args.a)
        art_b = RunArtifact.load(args.b)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"obs diff: cannot load artifact: {exc}", file=sys.stderr)
        return 2
    sections = (
        tuple(s.strip() for s in args.sections.split(",") if s.strip())
        if args.sections else None
    )
    try:
        report = diff_artifacts(
            art_a, art_b,
            mode=args.mode,
            sections=sections,
            rel_tol=args.rel_tol,
            abs_tol=args.abs_tol,
            ignore=tuple(args.ignore),
        )
    except ValueError as exc:
        print(f"obs diff: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fp:
            json.dump(report.to_dict(), fp, indent=1, sort_keys=True)
        print(f"wrote diff verdict JSON: {args.json}", file=sys.stderr)
    return 0 if report.equivalent else 1


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "obs":
        if len(argv) > 1 and argv[1] == "report":
            return _run_obs_report(argv[2:])
        if len(argv) > 1 and argv[1] == "profile":
            return _run_obs_profile(argv[2:])
        if len(argv) > 1 and argv[1] == "diff":
            return _run_obs_diff(argv[2:])
        return _run_obs(argv[1:])

    from .harness.experiments import ALL_EXPERIMENTS

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the VNET/P paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (see 'list'), or 'all', or 'list'",
    )
    parser.add_argument(
        "--quick", action="store_true", help="run the reduced-size version"
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for independent simulation points "
             "(default 1 = inline; results are identical at any N)",
    )
    parser.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=True,
        help="reuse cached point results keyed by config + code version "
             "(default on; --no-cache forces recomputation)",
    )
    parser.add_argument(
        "--cache-dir", default="results/.cache", metavar="DIR",
        help="result cache directory (default results/.cache)",
    )
    parser.add_argument(
        "--artifact-out", metavar="PATH",
        help="write the run's RunArtifact bundle (config fingerprint, "
             "rows, metrics, timelines, health, fairness) as JSON — "
             "the input to 'python -m repro obs diff'",
    )
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name, fn in ALL_EXPERIMENTS.items():
            doc = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"{name:14} {doc}")
        return 0

    names = list(ALL_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(ALL_EXPERIMENTS)}", file=sys.stderr)
        return 2
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    from .exec import Engine, ResultCache

    engine = Engine(
        jobs=args.jobs,
        cache=ResultCache(args.cache_dir) if args.cache else None,
    )
    results = []
    for name in names:
        start = time.time()
        result = ALL_EXPERIMENTS[name](quick=args.quick, engine=engine)
        results.append(result)
        print(result.render())
        print(f"[{time.time() - start:.1f}s]\n")
    print(engine.summary())
    if args.artifact_out:
        from .obs.runinfo import build_artifact

        artifact = build_artifact(
            engine, results,
            extra_config={
                "experiments": names,
                "quick": bool(args.quick),
                "jobs": args.jobs,
            },
        )
        artifact.save(args.artifact_out)
        print(f"wrote run artifact: {args.artifact_out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
