"""Simulated provisioning: bring a compiled overlay up *inside* sim time.

:meth:`~repro.topo.compiler.CompiledTopology.build` with
``configure=True`` applies every host's configuration instantaneously at
t=0 — right for steady-state benchmarks, wrong for studying *cloud
provisioning* of an HPC overlay.  :func:`provision` instead builds the
testbed unconfigured and replays each host's control-language commands
as a simulated process (a per-command apply cost, hosts started on a
stagger), so overlay **convergence time** becomes a first-class,
deterministic observable tracked by a
:class:`~repro.obs.convergence.ConvergenceTracker`.

Everything here is simulated time; no wall-clock values leak into
results (the exec engine's cold/warm and serial/parallel CI diffs depend
on that).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..obs.convergence import ConvergenceTracker
from .compiler import CompiledTopology, Testbed, peer_guests

__all__ = ["ProvisionReport", "provision", "probe_rtt_ns"]

#: Default simulated cost of applying one control-language command
#: (parse + validate + core update), loosely an ioctl round-trip.
DEFAULT_APPLY_NS = 20_000

#: Default stagger between successive hosts' provisioning starts,
#: modelling a controller pushing configuration host by host.
DEFAULT_STAGGER_NS = 50_000


@dataclass
class ProvisionReport:
    """What one provisioning run measured (simulated time only)."""

    n_hosts: int
    n_commands: int
    converged_ns: int
    first_ready_ns: int
    last_ready_ns: int

    @property
    def converged_ms(self) -> float:
        """Convergence time in milliseconds of simulated time."""
        return self.converged_ns / 1e6


def provision(
    testbed: Testbed,
    compiled: Optional[CompiledTopology] = None,
    apply_ns: int = DEFAULT_APPLY_NS,
    stagger_ns: int = DEFAULT_STAGGER_NS,
    tracker: Optional[ConvergenceTracker] = None,
    until_slack_ns: int = 1_000_000,
) -> ProvisionReport:
    """Apply a compiled configuration host-by-host in simulated time.

    ``testbed`` must have been built with ``configure=False`` (its route
    tables empty); host ``i``'s apply process starts at ``i *
    stagger_ns`` and charges ``apply_ns`` per command.  Runs the
    simulator until convergence and returns the report.  Pass a
    ``tracker`` to also collect metrics/health events.
    """
    compiled = compiled or testbed.compiled
    if compiled is None:
        raise ValueError("provision() needs the compiled topology")
    if not testbed.controls:
        raise ValueError("provision() needs an overlay testbed (with controls)")
    sim = testbed.sim
    tracker = tracker or ConvergenceTracker(sim, expected=len(compiled.hosts))

    def apply_host(ch, control):
        for cmd in ch.commands:
            yield apply_ns
            control.apply(cmd)
        tracker.host_ready(ch.name)

    def kickoff(delay_ns, ch, control):
        if delay_ns:
            yield delay_ns
        yield from apply_host(ch, control)

    for i, (ch, control) in enumerate(zip(compiled.hosts, testbed.controls)):
        sim.process(kickoff(i * stagger_ns, ch, control),
                    name=f"provision.{ch.name}")

    horizon = (len(compiled.hosts) * stagger_ns
               + compiled.n_commands * apply_ns + until_slack_ns)
    sim.run(until=sim.now + horizon)
    if not tracker.converged:
        raise RuntimeError(
            f"overlay failed to converge within {horizon} ns "
            f"({len(tracker.ready_ns)}/{tracker.expected} hosts ready)"
        )
    times = sorted(tracker.ready_ns.values())
    return ProvisionReport(
        n_hosts=len(compiled.hosts),
        n_commands=compiled.n_commands,
        converged_ns=tracker.converged_ns - tracker.start_ns,
        first_ready_ns=times[0] - tracker.start_ns,
        last_ready_ns=times[-1] - tracker.start_ns,
    )


def probe_rtt_ns(testbed: Testbed, a: int = 0, b: int = -1,
                 data_size: int = 56, count: int = 3) -> float:
    """Median guest-to-guest ping RTT (ns) between endpoints ``a``/``b``.

    Drives the guest stacks' own ``ping`` generator directly (no harness
    dependency), peering just the probed pair, so cluster-scale builds
    can verify end-to-end reachability across multi-hop overlay routes.
    """
    b = b % len(testbed.endpoints)
    a = a % len(testbed.endpoints)
    peer_guests(testbed, a, b)
    src, dst = testbed.endpoints[a], testbed.endpoints[b]
    sim = testbed.sim
    rtts: list[int] = []

    def pinger():
        for _ in range(count):
            rtt = yield from src.stack.ping(dst.ip, data_size=data_size)
            rtts.append(rtt)

    sim.process(pinger(), name=f"probe.{a}->{b}")
    sim.run()
    if not rtts:
        raise RuntimeError(f"probe {a}->{b}: no ping replies")
    rtts.sort()
    return float(rtts[len(rtts) // 2])
