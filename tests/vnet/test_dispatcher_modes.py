"""Unit tests for the adaptive mode controller and yield strategies."""

import pytest

from repro.config import (
    NETEFFECT_10G,
    VnetMode,
    VnetTuning,
    YieldStrategy,
    default_host,
    default_tuning,
)
from repro.harness.testbed import build_vnetp
from repro.host import Host
from repro.palacios import PalaciosVMM
from repro.sim import Simulator
from repro.vnet.dispatcher import ModeController, YieldState, wake_penalty
from repro import units


def make_controller(tuning):
    sim = Simulator()
    host = Host(sim, default_host(), NETEFFECT_10G, ip="10.0.0.1")
    vmm = PalaciosVMM(sim, host)
    vm = vmm.create_vm("vm", guest_ip="172.16.0.1")
    nic = vm.attach_virtio_nic(mac="5a:00:00:00:00:01")
    return sim, nic, ModeController(sim, nic, tuning)


def test_static_mode_never_switches():
    sim, nic, ctl = make_controller(default_tuning(mode=VnetMode.VMM_DRIVEN))
    assert ctl.mode is VnetMode.VMM_DRIVEN
    for _ in range(100_000 // 100):
        ctl.note_packet(100)
    assert ctl.switches == 0


def test_adaptive_starts_guest_driven_with_kicks_enabled():
    sim, nic, ctl = make_controller(default_tuning(mode=VnetMode.ADAPTIVE))
    assert ctl.mode is VnetMode.GUEST_DRIVEN
    assert nic.suppress_kicks is False


def test_adaptive_switches_up_at_high_rate():
    tuning = default_tuning(mode=VnetMode.ADAPTIVE)
    sim, nic, ctl = make_controller(tuning)

    def traffic():
        # 10^5 packets/s >> alpha_u = 10^4.
        for _ in range(1200):
            ctl.note_packet()
            yield sim.timeout(10_000)  # 10 us apart

    p = sim.process(traffic())
    sim.run(until=p)
    assert ctl.mode is VnetMode.VMM_DRIVEN
    assert nic.suppress_kicks is True


def test_adaptive_switches_back_at_low_rate():
    tuning = default_tuning(mode=VnetMode.ADAPTIVE)
    sim, nic, ctl = make_controller(tuning)

    def burst_then_trickle():
        for _ in range(1200):
            ctl.note_packet()
            yield sim.timeout(10_000)
        # Now ~100 packets/s < alpha_l = 10^3.
        for _ in range(10):
            ctl.note_packet()
            yield sim.timeout(10_000_000)  # 10 ms apart

    p = sim.process(burst_then_trickle())
    sim.run(until=p)
    assert ctl.mode is VnetMode.GUEST_DRIVEN
    assert ctl.switches >= 2


def test_hysteresis_between_bounds_holds_mode():
    """Rates between alpha_l and alpha_u must not cause flapping."""
    tuning = default_tuning(mode=VnetMode.ADAPTIVE)
    sim, nic, ctl = make_controller(tuning)

    def mid_rate():
        # ~3000 packets/s: between alpha_l (10^3) and alpha_u (10^4).
        for _ in range(300):
            ctl.note_packet()
            yield sim.timeout(333_000)

    p = sim.process(mid_rate())
    sim.run(until=p)
    assert ctl.mode is VnetMode.GUEST_DRIVEN  # started there, stays
    assert ctl.switches == 0


def test_wake_penalty_immediate_zero():
    tuning = default_tuning(yield_strategy=YieldStrategy.IMMEDIATE)
    assert wake_penalty(YieldStrategy.IMMEDIATE, tuning, was_blocked=True) == 0


def test_wake_penalty_timed_half_quantum():
    tuning = default_tuning(yield_strategy=YieldStrategy.TIMED)
    assert (
        wake_penalty(YieldStrategy.TIMED, tuning, was_blocked=True)
        == tuning.t_sleep_ns // 2
    )


def test_wake_penalty_adaptive_threshold():
    tuning = default_tuning(yield_strategy=YieldStrategy.ADAPTIVE)
    recently = wake_penalty(
        YieldStrategy.ADAPTIVE, tuning, was_blocked=True, idle_ns=tuning.t_nowork_ns // 2
    )
    long_idle = wake_penalty(
        YieldStrategy.ADAPTIVE, tuning, was_blocked=True, idle_ns=tuning.t_nowork_ns * 2
    )
    assert recently == 0
    assert long_idle == tuning.t_sleep_ns // 2


def test_yield_state_adds_base_wakeup():
    sim = Simulator()
    tuning = default_tuning(yield_strategy=YieldStrategy.IMMEDIATE)
    ystate = YieldState(sim, tuning, base_wakeup_ns=7_000)
    assert ystate.penalty(was_blocked=True) == 7_000
    assert ystate.penalty(was_blocked=False) == 0
