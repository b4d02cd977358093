"""Packet-dispatch support: adaptive mode control and yield strategies.

* :class:`ModeController` implements the Fig. 6 algorithm: per virtual
  NIC, estimate the packet arrival rate over a window and switch between
  guest-driven and VMM-driven modes with hysteresis
  (``alpha_l < alpha_u`` so the controller does not flap).
* :func:`wake_penalty` models the yield strategies of Sect. 4.8 as the
  *scheduling latency* a poll loop pays when work arrives while it is
  yielded: zero for immediate yield, half a sleep quantum on average for
  timed yield, and adaptive in between.  (Implemented as a penalty on
  wakeup rather than as live polling timers so an idle simulation
  quiesces.)
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..config import VnetMode, VnetTuning, YieldStrategy
from ..obs.context import Observability
from ..sim import Signal, Simulator
from ..units import SECOND

if TYPE_CHECKING:  # pragma: no cover
    from ..palacios.virtio import VirtioNIC

__all__ = ["ModeController", "YieldState", "wake_penalty"]


class ModeController:
    """Per-NIC guest-driven/VMM-driven mode selection (Fig. 6)."""

    COUNTERS = ("switches",)

    def __init__(self, sim: Simulator, nic: "VirtioNIC", tuning: VnetTuning):
        self.sim = sim
        self.nic = nic
        self.tuning = tuning
        self.adaptive = tuning.mode is VnetMode.ADAPTIVE
        # Adaptive operation starts in guest-driven mode (low-rate optimum).
        self.mode = VnetMode.GUEST_DRIVEN if self.adaptive else tuning.mode
        self.mode_changed = Signal(sim, f"{nic.name}.modechg")
        # Synchronous observers of mode switches (the Signal above wakes
        # waiting processes on the *next* kernel round; the fluid fast
        # path needs the exact switch instant to de-escalate).
        self.on_switch: list = []
        metrics = Observability.of(sim).metrics
        self.switches = 0
        metrics.publish(f"vnet.mode.{nic.name}", self)
        # Gauge mirrors the current mode for snapshots: 0 = guest-driven,
        # 1 = VMM-driven.
        self._mode_gauge = metrics.gauge(f"vnet.mode.{nic.name}.vmm_driven")
        self._window_start = sim.now
        self._packets = 0
        self._apply()

    def _apply(self) -> None:
        # In VMM-driven mode a dispatcher thread polls the TXQ, so guest
        # kicks are suppressed (virtio no-notify flag).
        self.nic.suppress_kicks = self.mode is VnetMode.VMM_DRIVEN
        self._mode_gauge.set(1 if self.mode is VnetMode.VMM_DRIVEN else 0)

    def note_packet(self, n: int = 1) -> None:
        """Record packet arrivals to/from the NIC; recompute rate lazily."""
        if not self.adaptive:
            return
        self._packets += n
        elapsed = self.sim.now - self._window_start
        if elapsed < self.tuning.window_ns:
            return
        rate = self._packets * SECOND / elapsed   # packets per second
        self._packets = 0
        self._window_start = self.sim.now
        if rate > self.tuning.alpha_u and self.mode is VnetMode.GUEST_DRIVEN:
            self._switch(VnetMode.VMM_DRIVEN)
        elif rate < self.tuning.alpha_l and self.mode is VnetMode.VMM_DRIVEN:
            self._switch(VnetMode.GUEST_DRIVEN)
        # Rates between the bounds leave the mode unchanged (hysteresis).

    def _switch(self, mode: VnetMode) -> None:
        self.mode = mode
        self.switches += 1
        self._apply()
        for callback in self.on_switch:
            callback(mode)
        self.mode_changed.fire(mode)


class YieldState:
    """Tracks when a poll loop last found work, for the adaptive strategy.

    ``base_wakeup_ns`` is the cost of waking the thread at all when work
    arrives while it is idle (IPI, scheduler, cache warm-up); the yield
    strategy adds its own latency on top.  Both vanish under streaming
    load, where the loop never goes idle.
    """

    def __init__(self, sim: Simulator, tuning: VnetTuning, base_wakeup_ns: int = 0):
        self.sim = sim
        self.tuning = tuning
        self.base_wakeup_ns = base_wakeup_ns
        self.last_work_ns = sim.now

    def note_work(self) -> None:
        self.last_work_ns = self.sim.now

    def note_work_at(self, when_ns: int) -> None:
        """Record work found at a known (future) instant.

        The merged-charge fast paths collapse wakeup penalty and
        dispatch charge into a single sleep; this keeps the adaptive
        strategy's idle clock at the exact instant the work *would* have
        been noted on the unmerged chain.  ``last_work_ns`` is only read
        at the next blocked wakeup, which is always later still.
        """
        self.last_work_ns = when_ns

    def penalty(self, was_blocked: bool) -> int:
        if not was_blocked:
            return 0
        return self.base_wakeup_ns + wake_penalty(
            self.tuning.yield_strategy,
            self.tuning,
            was_blocked,
            idle_ns=self.sim.now - self.last_work_ns,
        )


def wake_penalty(
    strategy: YieldStrategy,
    tuning: VnetTuning,
    was_blocked: bool,
    idle_ns: int = 0,
) -> int:
    """Scheduling latency charged when a poll loop wakes with new work."""
    if not was_blocked:
        return 0
    if strategy is YieldStrategy.IMMEDIATE:
        return 0
    if strategy is YieldStrategy.TIMED:
        return tuning.t_sleep_ns // 2
    # Adaptive: immediate while recently busy, timed once idle beyond the
    # no-work threshold.
    if idle_ns <= tuning.t_nowork_ns:
        return 0
    return tuning.t_sleep_ns // 2
