#!/usr/bin/env python
"""CI regression gate over ``BENCH_sim.json`` reports.

Compares a *fresh* simbench report (``tools/simbench.py --quick --out``)
against the *reference* report committed in the repository and fails
(exit 1) when:

* any scenario's ``observables_unchanged`` flag — or the report-level
  one — is false: the fast path must remain a pure wall-clock
  optimisation, so a changed simulated-ns or frame count is always a
  bug, never "noise";
* any scenario's speedup-over-baseline ratio regresses by more than
  ``--tolerance`` (default 15 %) relative to the reference report's
  ratio for the same scenario.

The gate compares speedup *ratios*, not raw wall seconds: both the
fresh run and the reference divide by the same pinned baseline
numbers, so machine-speed differences between the commit machine and
the CI runner cancel to first order.  Residual machine drift (cache
hierarchy, turbo behaviour) is what the tolerance absorbs; tighten it
only with a rebaselined reference from the same runner class.

Usage::

    python tools/simbench.py --quick --out /tmp/bench_fresh.json
    python tools/benchgate.py /tmp/bench_fresh.json           # vs BENCH_sim.json
    python tools/benchgate.py fresh.json --reference other.json --tolerance 0.10
"""

from __future__ import annotations

import argparse
import json
import os
import sys

DEFAULT_REFERENCE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_sim.json"
)
DEFAULT_TOLERANCE = 0.15


def load_report(path: str) -> dict:
    """Read one simbench JSON report."""
    with open(path, encoding="utf-8") as fp:
        return json.load(fp)


def gate(fresh: dict, reference: dict,
         tolerance: float = DEFAULT_TOLERANCE) -> list[str]:
    """All gate violations of ``fresh`` vs ``reference`` (empty = pass)."""
    problems: list[str] = []
    if not fresh.get("observables_unchanged", False):
        problems.append(
            "report-level observables_unchanged is false: simulated results "
            "differ from the pinned baseline"
        )
    fresh_scenarios = fresh.get("scenarios", {})
    ref_scenarios = reference.get("scenarios", {})
    for name in sorted(ref_scenarios):
        ref = ref_scenarios[name]
        cur = fresh_scenarios.get(name)
        if cur is None:
            problems.append(f"{name}: scenario missing from fresh report")
            continue
        if not cur.get("observables_unchanged", False):
            problems.append(
                f"{name}: observables changed "
                f"(sim_ns {cur['current']['sim_ns']} vs baseline "
                f"{cur['baseline']['sim_ns']}, frames "
                f"{cur['current']['frames']} vs {cur['baseline']['frames']})"
            )
        ref_speedup = ref.get("speedup", 0.0)
        cur_speedup = cur.get("speedup", 0.0)
        floor = ref_speedup * (1.0 - tolerance)
        if cur_speedup < floor:
            problems.append(
                f"{name}: speedup regressed to {cur_speedup:.3f}x "
                f"(reference {ref_speedup:.3f}x, floor {floor:.3f}x at "
                f"{tolerance:.0%} tolerance)"
            )
    for name in sorted(fresh_scenarios):
        if name not in ref_scenarios:
            problems.append(
                f"{name}: scenario absent from reference report "
                "(regenerate the committed BENCH_sim.json)"
            )
    # The per-flow fast-path cache (repro.vnet.flowcache) must stay a
    # pure wall-clock optimisation: same simulated ns and frame count
    # with the cache on and off.  Only the identity flag is gated — the
    # cache-on/off wall ratio is machine noise, unlike the pinned-
    # baseline ratios above.
    if "flowcache" in reference:
        fc = fresh.get("flowcache")
        if fc is None:
            problems.append("flowcache: section missing from fresh report")
        elif not fc.get("observables_identical", False):
            problems.append(
                "flowcache: simulated observables diverge between cache-on "
                "and cache-off runs (the cache must be timing-neutral)"
            )
    # The hybrid fluid/packet fast path must hold its headline numbers:
    # >=5x events-per-frame reduction on the bulk-TCP scenario (the
    # floor rises with the committed reference, so improvements lock
    # in), identical delivered bytes, and a completion time within the
    # documented statistical tolerance of the all-packet golden run.
    if "fluid" in reference:
        fl = fresh.get("fluid")
        ref_fl = reference["fluid"]
        if fl is None:
            problems.append("fluid: section missing from fresh report")
        else:
            floor = max(5.0,
                        ref_fl.get("events_per_frame_reduction", 0.0)
                        * (1.0 - tolerance))
            reduction = fl.get("events_per_frame_reduction", 0.0)
            if reduction < floor:
                problems.append(
                    f"fluid: events-per-frame reduction {reduction:.2f}x "
                    f"below floor {floor:.2f}x (reference "
                    f"{ref_fl.get('events_per_frame_reduction', 0.0):.2f}x)"
                )
            if not fl.get("bytes_identical", False):
                problems.append(
                    "fluid: delivered bytes differ between fluid-on and "
                    "all-packet runs (reliability broken)"
                )
            if not fl.get("in_tolerance", False):
                problems.append(
                    f"fluid: completion-time ratio "
                    f"{fl.get('elapsed_ratio', 0.0):.3f} outside the "
                    f"±{fl.get('statistical_tolerance', 0.15):.0%} "
                    "statistical tolerance vs the all-packet golden"
                )
    # Route lookup must stay ~flat in table size (the (src, dst) index).
    # A return to the linear scan shows up as scaling near 1000/10 wall
    # ratio ≈ table-size ratio, i.e. scaling ≈ 0.01; the 0.25 floor is
    # far above any machine noise while catching that collapse.
    if "routing_lookup" in reference:
        rl = fresh.get("routing_lookup")
        if rl is None:
            problems.append("routing_lookup: section missing from fresh report")
        elif rl.get("scaling_1000_vs_10", 0.0) < 0.25:
            problems.append(
                f"routing_lookup: lookup rate collapses with table size "
                f"(1000-route rate is {rl['scaling_1000_vs_10']:.3f}x the "
                f"10-route rate; floor 0.25 — linear scan regression?)"
            )
    # The fat-tree flow-cache hit rate is fully deterministic (simulated
    # probes on a generated topology), so it is gated tightly: a drop
    # means the per-flow fast path stopped covering multi-hop forwarding.
    if "flowcache_topo" in reference:
        ft = fresh.get("flowcache_topo")
        ref_ft = reference["flowcache_topo"]
        if ft is None:
            problems.append("flowcache_topo: section missing from fresh report")
        elif abs(ft.get("hit_rate", 0.0) - ref_ft.get("hit_rate", 0.0)) > 0.05:
            problems.append(
                f"flowcache_topo: hit rate {ft.get('hit_rate', 0.0):.3f} "
                f"deviates from reference {ref_ft.get('hit_rate', 0.0):.3f} "
                "by more than 0.05"
            )
    # The kernel self-profiler (repro.obs.profile) must stay cheap enough
    # to leave on: its enabled/detached wall ratio may grow by at most
    # the tolerance over the committed reference.  Profiling must never
    # perturb simulated observables.
    if "obs_overhead" in reference:
        oo = fresh.get("obs_overhead")
        if oo is None:
            problems.append("obs_overhead: section missing from fresh report")
        else:
            ref_ratio = reference["obs_overhead"].get("enabled_ratio", 0.0)
            ceiling = ref_ratio * (1.0 + tolerance)
            ratio = oo.get("enabled_ratio", float("inf"))
            if ratio > ceiling:
                problems.append(
                    f"obs_overhead: enabled profiler costs {ratio:.3f}x the "
                    f"detached wall time (reference {ref_ratio:.3f}x, ceiling "
                    f"{ceiling:.3f}x at {tolerance:.0%} tolerance)"
                )
            if not oo.get("observables_identical", False):
                problems.append(
                    "obs_overhead: simulated observables diverge between the "
                    "detached and enabled profiler legs (profiling must "
                    "never change simulation results)"
                )
    # Reno fairness floors are acceptance criteria, not perf numbers:
    # two symmetric competing flows must split the 1G bottleneck at
    # JFI >= 0.95 with >= 80% utilization.  Everything in the section is
    # a simulated observable (fully deterministic), so the asymmetric-RTT
    # and lossy rows are additionally held to the committed reference —
    # a drifted JFI means the congestion machinery changed behaviour.
    if "fairness" in reference:
        fa = fresh.get("fairness")
        ref_fa = reference["fairness"]
        if fa is None:
            problems.append("fairness: section missing from fresh report")
        else:
            sym = fa.get("symmetric", {})
            if sym.get("jfi", 0.0) < 0.95:
                problems.append(
                    f"fairness: symmetric JFI {sym.get('jfi', 0.0):.4f} "
                    "below the 0.95 acceptance floor"
                )
            if sym.get("utilization", 0.0) < 0.80:
                problems.append(
                    f"fairness: symmetric utilization "
                    f"{sym.get('utilization', 0.0):.3f} below the 0.80 "
                    "acceptance floor"
                )
            for key in ("symmetric", "asymmetric_rtt_200us"):
                cur_jfi = fa.get(key, {}).get("jfi", 0.0)
                ref_jfi = ref_fa.get(key, {}).get("jfi", 0.0)
                if abs(cur_jfi - ref_jfi) > 0.02:
                    problems.append(
                        f"fairness: {key} JFI {cur_jfi:.4f} deviates from "
                        f"reference {ref_jfi:.4f} by more than 0.02 "
                        "(congestion behaviour changed)"
                    )
            cur_u = fa.get("loss_2pct", {}).get("utilization", 0.0)
            ref_u = ref_fa.get("loss_2pct", {}).get("utilization", 0.0)
            if ref_u and abs(cur_u - ref_u) > tolerance * ref_u:
                problems.append(
                    f"fairness: loss-2% utilization {cur_u:.3f} deviates "
                    f"from reference {ref_u:.3f} beyond {tolerance:.0%}"
                )
    return problems


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; exit 0 on pass, 1 on any gate violation."""
    parser = argparse.ArgumentParser(
        description="Fail when a fresh simbench report regresses vs the "
                    "committed reference."
    )
    parser.add_argument("fresh", help="fresh report (simbench --out PATH)")
    parser.add_argument("--reference", default=DEFAULT_REFERENCE,
                        help="reference report (default: repo BENCH_sim.json)")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed fractional speedup regression "
                             "(default 0.15)")
    args = parser.parse_args(argv)
    if not 0 <= args.tolerance < 1:
        parser.error("--tolerance must be in [0, 1)")

    fresh = load_report(args.fresh)
    reference = load_report(args.reference)
    problems = gate(fresh, reference, tolerance=args.tolerance)
    if problems:
        print("[benchgate] FAIL")
        for p in problems:
            print(f"  - {p}")
        return 1
    scen = ", ".join(
        f"{name} {fresh['scenarios'][name]['speedup']:.2f}x"
        for name in sorted(fresh.get("scenarios", {}))
    )
    print(f"[benchgate] PASS ({scen}; tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
