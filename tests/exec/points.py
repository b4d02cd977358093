"""Module-level toy point functions for the engine tests.

Point functions must live at module level: pool workers receive them by
pickled reference, and the fingerprinter refuses ``<locals>`` callables
for the same reason.
"""

import os
import random


def add_point(a, b):
    """Pure-arithmetic point."""
    return a + b


def fluid_knob_point():
    """Point whose value is the ``REPRO_FLUID`` knob it ran under."""
    return os.environ.get("REPRO_FLUID", "")


def metric_point(n):
    """Point that publishes metrics through a simulation's registry."""
    from repro.obs.context import Observability
    from repro.sim import Simulator

    obs = Observability.of(Simulator())
    obs.metrics.counter("toy.count").inc(n)
    obs.metrics.gauge("toy.gauge").set(float(n))
    obs.metrics.histogram("toy.hist", (1.0, 10.0)).observe(n)
    return n * 2


def timeline_point(tag, ticks=3):
    """Point that samples a time-series inside its simulation."""
    from repro.obs.context import Observability
    from repro.sim import Simulator

    sim = Simulator()
    obs = Observability.of(sim)
    c = obs.metrics.counter("toy.pkts")
    tl = obs.timeline
    tl.interval_ns = 1000
    tl.counter_rate("toy.pkts", series=f"toy.rate.{tag}", unit="pkt/s")

    def traffic():
        while True:
            yield sim.timeout(500)
            c.inc()

    sim.process(traffic())
    tl.start(until_ns=ticks * 1000)
    sim.run(until=ticks * 1000)
    return len(tl.series[f"toy.rate.{tag}"])


def seeded_random_point(tag):
    """Point whose value depends only on the engine-provided seed."""
    del tag
    return random.random()


def pid_point(tag):
    """Point that reports which process ran it."""
    del tag
    return os.getpid()


def failing_point():
    """Point that always raises."""
    raise RuntimeError("boom")


def health_point(tag, n=2):
    """Point that emits health events through its simulation's hub."""
    from repro.obs.context import Observability
    from repro.sim import Simulator

    obs = Observability.of(Simulator())
    for i in range(n):
        obs.health.log.emit(
            t_ns=i * 100, monitor=f"toy.{tag}", kind="tick", severity="info"
        )
    return n
