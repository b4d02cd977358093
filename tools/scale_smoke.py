#!/usr/bin/env python
"""Cluster-scale smoke test: 1024 hosts, compile → build → converge → ping.

CI's ``scale-smoke`` job runs this under a wall-clock budget.  It
generates the 1024-compute-host fat-tree (k=16: 1344 simulated machines
including edge/agg/core routers, ~77k route entries), compiles it to
VNET/P route tables and control-language configuration, builds the
simulated testbed, provisions it in simulated time, and pings across
the fabric's longest path.  Exit is non-zero if any stage fails, the
probe gets no replies, or the process holds more than
:data:`MAX_KIB_PER_MACHINE` of resident memory per simulated machine
after provisioning.

Wall-clock stage timings are printed *informationally* (they never go
into a committed artifact — CI determinism diffs forbid wall-clock in
results); the asserted facts are all simulated/deterministic:
convergence, table sizes, and the cross-fabric RTT.  Peak RSS after the
build and again after provisioning (where the process peak falls), and
what each comes to per simulated machine, is printed too; the figure
after provisioning is also gated.

Usage::

    python tools/scale_smoke.py            # 1024 hosts
    python tools/scale_smoke.py --hosts 256
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.topo import TopologyCompiler, fat_tree, probe_rtt_ns, provision  # noqa: E402

#: Bound on peak resident KiB per simulated machine, above the RSS after
#: import, once the fabric is provisioned: 15 % over the 25.1 KiB
#: measured at the default 1024 hosts (CPython 3.11, Linux x86-64);
#: smaller fabrics sit lower (21.0 KiB at 256 hosts, 13.4 at 16).
MAX_KIB_PER_MACHINE = 28.9


def _peak_rss_bytes() -> int:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _print_memory(stage: str, rss0: int, machines: int) -> float:
    """Print peak RSS so far; return the KiB per simulated machine above
    the import."""
    rss = _peak_rss_bytes()
    per_machine = (rss - rss0) / machines / 1024
    print(f"memory:   peak RSS after {stage} {rss / 2**20:.1f} MB, "
          f"{per_machine:.1f} KiB per simulated machine "
          f"above the {rss0 / 2**20:.1f} MB after import")
    return per_machine


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--hosts", type=int, default=1024,
                    help="compute hosts in the fat-tree (default 1024)")
    args = ap.parse_args(argv)

    rss0 = _peak_rss_bytes()
    t0 = time.perf_counter()
    topo = fat_tree(args.hosts)
    t1 = time.perf_counter()
    compiled = TopologyCompiler(topo).compile()
    t2 = time.perf_counter()
    print(
        f"generate: {len(topo.hosts)} hosts ({args.hosts} compute + "
        f"{topo.n_routers} routers), {len(topo.links)} links "
        f"[{t1 - t0:.2f}s wall]"
    )
    print(
        f"compile:  {compiled.routes_total} routes "
        f"(max table {compiled.max_table}), {compiled.n_commands} commands, "
        f"signature {compiled.signature()[:12]} [{t2 - t1:.2f}s wall]"
    )

    tb = compiled.build(configure=False)
    t3 = time.perf_counter()
    print(f"build:    {len(tb.hosts)} simulated machines, "
          f"{len(tb.endpoints)} guest endpoints [{t3 - t2:.2f}s wall]")
    _print_memory("build", rss0, len(tb.hosts))

    report = provision(tb)
    t4 = time.perf_counter()
    print(
        f"provision: converged in {report.converged_ms:.2f} ms simulated "
        f"({report.n_commands} commands) [{t4 - t3:.2f}s wall]"
    )
    per_machine = _print_memory("provision", rss0, len(tb.hosts))

    rtt_ns = probe_rtt_ns(tb, 0, args.hosts - 1)
    t5 = time.perf_counter()
    print(f"probe:    cross-fabric rtt {rtt_ns / 1e3:.1f} us simulated "
          f"[{t5 - t4:.2f}s wall]")

    if not (0 < rtt_ns < 10_000_000):
        print(f"ERROR: implausible cross-fabric RTT {rtt_ns} ns", file=sys.stderr)
        return 1
    if per_machine > MAX_KIB_PER_MACHINE:
        print(f"ERROR: {per_machine:.1f} KiB per simulated machine after "
              f"provisioning exceeds {MAX_KIB_PER_MACHINE} KiB", file=sys.stderr)
        return 1
    print(f"scale smoke OK ({args.hosts} hosts, {t5 - t0:.2f}s wall total)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
