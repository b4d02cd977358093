"""Unit tests for repro.obs.profile (the sim-kernel self-profiler)."""

import time

import pytest

from repro import units
from repro.apps.ttcp import run_ttcp_tcp
from repro.config import NETEFFECT_10G
from repro.harness.testbed import build_vnetp
from repro.obs.profile import (
    KernelProfiler,
    ProfileReport,
    collapsed_stacks,
    combine_reports,
    profile_chrome_trace,
)
from repro.sim.core import SimulationError, Simulator


def _ticker(sim, n, interval, name):
    def proc(sim):
        for _ in range(n):
            yield sim.timeout(interval)
    return sim.process(proc(sim), name=name)


# -- lifecycle -------------------------------------------------------------

def test_install_enable_disable_detach():
    sim = Simulator()
    assert KernelProfiler.of(sim) is None
    prof = KernelProfiler.install(sim)
    assert KernelProfiler.of(sim) is prof
    assert prof.enabled is False  # installed profilers start disabled
    prof.enable()
    assert prof.enabled is True
    prof.disable()
    assert prof.enabled is False
    prof.detach()
    assert KernelProfiler.of(sim) is None


def test_disabled_profiler_never_collects():
    sim = Simulator()
    prof = KernelProfiler.install(sim)  # attached but disabled
    _ticker(sim, 50, 10, "idle.proc")
    sim.run()
    assert prof.events == 0 and prof.runs == 0 and not prof.categories
    assert sim.events_processed > 0  # the plain kernel loop ran


# -- attribution -----------------------------------------------------------

def test_event_counts_reconcile_with_events_processed():
    sim = Simulator()
    prof = KernelProfiler.install(sim).enable()
    _ticker(sim, 100, 10, "count.proc.0")
    _ticker(sim, 100, 10, "count.proc.1")
    before = sim.events_processed
    sim.run()
    rep = prof.report()
    assert rep.events == sim.events_processed - before
    assert sum(c["events"] for c in rep.categories.values()) == rep.events
    # Both instances fold into one category (trailing .N stripped).
    assert rep.categories["proc:count.proc"]["events"] == 202


def test_sleep_wakeups_charge_the_sleeping_process():
    """A ``yield delay`` wake-up, which has no event object, books to the
    same ``proc:<name>`` record as the ``Timeout`` it replaces."""

    def categories(sleeps):
        sim = Simulator()
        prof = KernelProfiler.install(sim).enable()

        def proc(sim):
            for _ in range(40):
                yield 10 if sleeps else sim.timeout(10)

        sim.process(proc(sim), name="nap.proc.0")
        sim.run()
        return {k: c["events"] for k, c in prof.report().categories.items()}

    assert categories(sleeps=True) == categories(sleeps=False)
    assert categories(sleeps=True)["proc:nap.proc"] == 41  # start + 40 wake-ups


def test_wall_time_reconciles_within_five_percent():
    # The acceptance check: attributed nanoseconds (categories + the
    # clock-advance bucket) must land within ±5% of the wall time
    # measured around the profiled run, on a real workload.
    tb = build_vnetp(nic_params=NETEFFECT_10G)
    prof = KernelProfiler.install(tb.sim).enable()
    t0 = time.perf_counter_ns()
    run_ttcp_tcp(tb.endpoints[0], tb.endpoints[1], total_bytes=2 * units.MB)
    wall_ns = time.perf_counter_ns() - t0
    rep = prof.report()
    assert rep.events > 1000
    # Internal reconciliation: attribution partitions the loop's time.
    assert rep.attributed_ns == pytest.approx(rep.total_wall_ns, rel=0.05)
    # External reconciliation: the run loop dominates the workload wall.
    assert rep.total_wall_ns == pytest.approx(wall_ns, rel=0.05)


def test_profiled_run_is_schedule_identical():
    def observables(profiled):
        tb = build_vnetp(nic_params=NETEFFECT_10G)
        if profiled:
            KernelProfiler.install(tb.sim).enable()
        r = run_ttcp_tcp(tb.endpoints[0], tb.endpoints[1],
                         total_bytes=1 * units.MB)
        frames = sum(h.nic.tx_frames.value for h in tb.hosts)
        return r.elapsed_ns, r.bytes_moved, frames, tb.sim.events_processed

    assert observables(False) == observables(True)


def test_run_until_event_variant_and_return_value():
    sim = Simulator()
    prof = KernelProfiler.install(sim).enable()

    def proc(sim):
        yield sim.timeout(25)
        return "payload"

    p = _ticker(sim, 5, 100, "bg.proc")
    done = sim.process(proc(sim), name="target.proc")
    assert sim.run(until=done) == "payload"
    assert prof.events > 0 and prof.runs == 1
    sim.run()  # drain the background ticker, still profiled
    assert prof.runs == 2
    assert p is not None


def test_run_to_deadline_sets_now_and_counts():
    sim = Simulator()
    prof = KernelProfiler.install(sim).enable()
    _ticker(sim, 10, 10, "deadline.proc")
    sim.run(until=55)
    assert sim.now == 55
    assert prof.events == sum(
        c["events"] for c in prof.report().categories.values()
    )


def test_crash_propagates_through_profiled_loop():
    sim = Simulator()
    KernelProfiler.install(sim).enable()

    def boom(sim):
        yield sim.timeout(5)
        raise RuntimeError("kaboom")

    sim.process(boom(sim), name="crash.proc")
    with pytest.raises(RuntimeError, match="kaboom"):
        sim.run()


def test_starvation_raises_simulation_error():
    sim = Simulator()
    KernelProfiler.install(sim).enable()
    never = sim.event()
    with pytest.raises(SimulationError):
        sim.run(until=never)


# -- reports and exports ---------------------------------------------------

def test_report_round_trip_and_combine():
    sim = Simulator()
    prof = KernelProfiler.install(sim).enable()
    _ticker(sim, 20, 10, "rt.proc")
    sim.run()
    rep = prof.report()
    back = ProfileReport.from_dict(rep.to_dict())
    assert back.to_dict() == rep.to_dict()
    both = combine_reports([rep, back])
    assert both.events == 2 * rep.events
    assert both.categories["proc:rt.proc"]["events"] == \
        2 * rep.categories["proc:rt.proc"]["events"]
    assert "TOTAL attributed" in rep.render()


def test_collapsed_stacks_format():
    rep = ProfileReport(
        total_wall_ns=1000, events=3, advance_ns=100, heap_pops=2, runs=1,
        categories={"proc:a.b": {"events": 2, "wall_ns": 600},
                    "evt:Event": {"events": 1, "wall_ns": 200}},
    )
    lines = collapsed_stacks(rep).splitlines()
    assert lines[0] == "sim.run;kernel.advance 100"
    assert "sim.run;evt;Event 200" in lines
    assert "sim.run;proc;a.b 600" in lines
    # Every line is "frames weight" with an integer weight.
    for line in lines:
        frames, weight = line.rsplit(" ", 1)
        assert frames.startswith("sim.run")
        assert weight.isdigit()


def test_chrome_trace_shape():
    rep = ProfileReport(
        total_wall_ns=1000, events=3, advance_ns=100, heap_pops=2, runs=1,
        categories={"proc:a.b": {"events": 2, "wall_ns": 600}},
    )
    trace = profile_chrome_trace(rep)
    complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
    assert len(complete) == 2  # kernel.advance + one category
    assert complete[0]["dur"] >= complete[-1]["dur"]  # heaviest first
    assert meta and all(e["name"] == "process_name" for e in meta)
    assert trace["otherData"]["total_wall_ns"] == 1000
