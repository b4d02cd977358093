"""Hybrid fluid/packet correctness: statistical validation and transitions.

Three properties, straight from the design contract in
:mod:`repro.sim.fluid`:

* **Statistical validation** — where fluid runs, the observables the
  paper's figures are built from (delivered bytes, completion time) stay
  within tolerance of the all-packet golden run, with strictly fewer
  kernel events.
* **Exact de-escalation** — captures release at the precise transition
  instant (mode switches, chaos faults), and no analytic stride segment
  ever spans a declared transition (the golden fluid-fault property).
* **Determinism** — a faulted fluid run is a pure function of its
  inputs: identical rows rerun in-process and across ``--jobs 1/4``
  worker processes.
"""

import dataclasses

from repro import units
from repro.apps.ttcp import run_ttcp_tcp
from repro.chaos import FaultSchedule
from repro.config import NETEFFECT_10G, VnetTuning
from repro.exec import Engine, Point
from repro.harness.testbed import build_vnetp
from repro.obs.context import Observability
from repro.sim.fluid import fluid_region_of

from .fluid_points import fluid_chaos_row

TOTAL = 10 * units.MB


def _tuning(**kw):
    return dataclasses.replace(VnetTuning(), **kw)


def _run(fluid, fault=None, total_bytes=TOTAL):
    tb = build_vnetp(nic_params=NETEFFECT_10G, tuning=_tuning(fluid=fluid))
    sched = None
    if fault is not None:
        sched = FaultSchedule(tb.sim, name="fluidfault")
        sched.partition(tb.hosts[0].vnet_bridge.link_out("to1"),
                        start_ns=fault[0], stop_ns=fault[1])
        sched.start()
    res = run_ttcp_tcp(tb.endpoints[0], tb.endpoints[1],
                       total_bytes=total_bytes)
    tb.sim.run()
    return tb, res, sched


# --- statistical validation -----------------------------------------------------

def test_fluid_statistically_matches_packet_golden():
    """Same bytes delivered, completion time within tolerance, fewer events."""
    tb_off, golden, _ = _run(fluid=False)
    tb_on, hybrid, _ = _run(fluid=True)
    assert hybrid.bytes_moved == golden.bytes_moved == TOTAL
    # Measured ratio on this scenario is ~0.998; 15% is the documented
    # statistical-validation tolerance for fluid-modeled segments.
    assert abs(hybrid.elapsed_ns / golden.elapsed_ns - 1.0) < 0.15
    assert tb_on.sim.events_processed < tb_off.sim.events_processed
    region = fluid_region_of(tb_on.sim)
    assert region is not None and fluid_region_of(tb_off.sim) is None
    stats = region.stats()
    assert stats["captures"] >= 1 and stats["strides"] >= 1
    assert stats["bytes"] > 0
    assert stats["captured"] == 0 and stats["active"] == 0  # all released


def test_fluid_cuts_events_per_frame_on_40mb_transfer():
    """The fast path's headline on a long bulk transfer, where the
    capture/release head amortises: with fluid on, kernel events per
    NIC frame fall at least 6.12x (measured 7.19x), delivered bytes are
    identical and completion time stays within the 15% tolerance."""
    total = 40 * units.MB
    per_frame = {}
    results = {}
    for fluid in (False, True):
        tb, results[fluid], _ = _run(fluid, total_bytes=total)
        frames = sum(h.nic.tx_frames for h in tb.hosts)
        per_frame[fluid] = tb.sim.events_processed / frames
    golden, hybrid = results[False], results[True]
    assert hybrid.bytes_moved == golden.bytes_moved == total
    assert abs(hybrid.elapsed_ns / golden.elapsed_ns - 1.0) <= 0.15
    assert per_frame[False] / per_frame[True] >= 6.12


def test_fluid_off_leaves_connections_unhooked():
    tb, _, _ = _run(fluid=False)
    assert tb.cores[0].fluid_region is None


# --- exact de-escalation --------------------------------------------------------

def test_capture_release_lifecycle_in_health_log():
    """Bulk flow captures in steady state, releases at the adaptive mode
    switch (the datapath regime change makes its rate stale), recaptures
    in the new regime, and drains at completion."""
    tb, _, _ = _run(fluid=True)
    sim = tb.sim
    fluid_events = [e for e in Observability.of(sim).health.log.events
                    if e.monitor == "sim.fluid"]
    kinds = [e.kind for e in fluid_events]
    assert kinds.count("capture") >= 2     # initial + post-mode-switch
    assert kinds.count("release") == kinds.count("capture")
    assert kinds[0] == "capture"
    assert "drained" in fluid_events[-1].message
    snap = Observability.of(sim).metrics.snapshot("sim.fluid.")
    assert snap["sim.fluid.releases.mode-change"] >= 1
    assert snap["sim.fluid.releases.drained"] >= 1


def test_fluid_stride_never_crosses_a_fault():
    """The golden transition property: with a chaos partition declared,
    no advanced stride segment spans an install/heal instant, the flow
    releases when the fault lands, and the transfer still completes."""
    fault = (2 * units.MS, 4 * units.MS)
    tb, res, sched = _run(fluid=True, fault=fault)
    assert res.bytes_moved == TOTAL           # reliability across the cut
    region = fluid_region_of(tb.sim)
    points, blackouts = sched.transition_times()
    assert set(points) == set(fault)
    assert region.stride_log, "fluid never engaged"
    for t0, t1 in region.stride_log:
        for p in points:
            assert not (t0 < p < t1), \
                f"stride ({t0}, {t1}) spans transition {p}"
    snap = Observability.of(tb.sim).metrics.snapshot("sim.fluid.")
    released_at_fault = (snap.get("sim.fluid.releases.chaos", 0)
                         + snap.get("sim.fluid.releases.fault-window", 0))
    assert released_at_fault >= 1
    # No capture inside the blackout: every stride avoids the window too.
    start, stop = blackouts[0]
    for t0, t1 in region.stride_log:
        assert not (start < t1 and t0 < stop and t0 >= start), \
            f"stride ({t0}, {t1}) ran inside fault window ({start}, {stop})"


# --- determinism ----------------------------------------------------------------

def test_chaos_mid_stride_rows_repeatable():
    row_a = fluid_chaos_row(4, fault_ms=(1, 2))
    row_b = fluid_chaos_row(4, fault_ms=(1, 2))
    assert row_a == row_b
    assert row_a[0] == 4 * units.MB


def test_rows_identical_across_jobs_1_and_4():
    """Mode-transition determinism across worker processes: the faulted
    fluid scenario produces bit-identical rows under --jobs 1 and 4."""
    points = [
        Point("fluid", "clean", fluid_chaos_row, {"total_mb": 10}),
        Point("fluid", "faulted", fluid_chaos_row,
              {"total_mb": 10, "fault_ms": (2, 4)}),
    ]
    serial = Engine(jobs=1).run(points)
    parallel = Engine(jobs=4).run(points)
    assert serial == parallel
    for bytes_moved, _elapsed, _now, _events, lifecycle in serial:
        assert bytes_moved == 10 * units.MB
        assert any(kind == "capture" for _t, kind, _m in lifecycle)
