"""Declarative fault schedules: timed chaos windows over injector stages.

A :class:`FaultSchedule` is built before the simulation runs — each
builder call (:meth:`FaultSchedule.loss`, :meth:`~FaultSchedule.burst`,
:meth:`~FaultSchedule.partition`, :meth:`~FaultSchedule.flap`,
:meth:`~FaultSchedule.reorder`, :meth:`~FaultSchedule.duplicate`,
:meth:`~FaultSchedule.pause`) records one *window*: a fault kind, the
port (or host) it applies to, and a ``[start_ns, stop_ns)`` interval.
:meth:`~FaultSchedule.start` then spawns one bounded simulator process
per window that installs the injector at ``start_ns`` and removes it at
``stop_ns``, so a drained ``sim.run()`` still terminates (every window
has a finite horizon; ``stop_ns=None`` leaves the injector in place
without keeping any timer pending).

Everything is deterministic: windows fire at exact virtual times and
each stochastic injector owns a seeded generator, so the same schedule
over the same workload produces bit-identical results — the property
the ``determinism-suite`` CI job asserts by diffing two same-seed runs.

Example::

    sched = FaultSchedule(sim)
    sched.loss(h0.nic.tx_port, start_ns=1 * MS, stop_ns=3 * MS, rate=0.05, seed=7)
    sched.partition(bridge.link_out("to1"), start_ns=4 * MS, stop_ns=8 * MS)
    sched.flap(switch_port, start_ns=2 * MS, down_ns=100_000, up_ns=400_000, cycles=3)
    sched.start()
    sim.run()

The activity log (:attr:`FaultSchedule.log`) records every install /
remove / state flip with its virtual timestamp, and the schedule counts
events under ``chaos.schedule.<name>.events`` in the obs registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..obs.context import Observability
from ..sim import Simulator
from ..sim.fluid import fluid_region_of
from ..sim.pipeline import Port
from .stages import (
    DuplicateStage,
    FaultInjector,
    GilbertElliottStage,
    LossStage,
    PartitionStage,
    ReorderStage,
)

__all__ = ["FaultSchedule", "FaultWindow"]


@dataclass
class FaultWindow:
    """One scheduled fault: what, where, and when."""

    kind: str
    target: str
    start_ns: int
    stop_ns: Optional[int]
    params: dict = field(default_factory=dict)
    stage: Optional[FaultInjector] = None


class FaultSchedule:
    """A timed chaos scenario over any number of pipeline ports."""

    def __init__(self, sim: Simulator, name: str = "default"):
        self.sim = sim
        self.name = name
        self.windows: list[FaultWindow] = []
        self.log: list[tuple[int, str]] = []
        self.obs = Observability.of(sim)
        self._events = self.obs.metrics.counter(
            f"chaos.schedule.{name}.events"
        )
        self._started = False

    # -- builder calls (pre-run) ------------------------------------------
    def loss(self, port: Port, start_ns: int, stop_ns: Optional[int],
             rate: float, seed: int = 0) -> FaultWindow:
        """Bernoulli loss window at ``rate`` on ``port``."""
        stage = LossStage(self.sim, rate=rate, seed=seed)
        return self._add("loss", port, start_ns, stop_ns, stage,
                         rate=rate, seed=seed)

    def burst(self, port: Port, start_ns: int, stop_ns: Optional[int],
              p_gb: float, p_bg: float, loss_good: float = 0.0,
              loss_bad: float = 1.0, seed: int = 0) -> FaultWindow:
        """Gilbert–Elliott burst-loss window on ``port``."""
        stage = GilbertElliottStage(
            self.sim, p_gb=p_gb, p_bg=p_bg,
            loss_good=loss_good, loss_bad=loss_bad, seed=seed,
        )
        return self._add("burst", port, start_ns, stop_ns, stage,
                         p_gb=p_gb, p_bg=p_bg, seed=seed)

    def partition(self, port: Port, start_ns: int,
                  stop_ns: Optional[int]) -> FaultWindow:
        """Blackhole everything crossing ``port`` for the window."""
        stage = PartitionStage(self.sim, failed=True)
        return self._add("partition", port, start_ns, stop_ns, stage)

    def reorder(self, port: Port, start_ns: int, stop_ns: Optional[int],
                prob: float, delay_ns: int, seed: int = 0) -> FaultWindow:
        """Reorder window on a delivery ``port`` (see stage placement rule)."""
        stage = ReorderStage(self.sim, prob=prob, delay_ns=delay_ns, seed=seed)
        return self._add("reorder", port, start_ns, stop_ns, stage,
                         prob=prob, delay_ns=delay_ns, seed=seed)

    def duplicate(self, port: Port, start_ns: int, stop_ns: Optional[int],
                  prob: float, seed: int = 0) -> FaultWindow:
        """Duplication window on a delivery ``port``."""
        stage = DuplicateStage(self.sim, prob=prob, seed=seed)
        return self._add("duplicate", port, start_ns, stop_ns, stage,
                         prob=prob, seed=seed)

    def flap(self, port: Port, start_ns: int, down_ns: int, up_ns: int,
             cycles: int) -> FaultWindow:
        """Link flapping: ``cycles`` repetitions of down/up on ``port``."""
        if cycles < 1:
            raise ValueError(f"flap needs >= 1 cycle, got {cycles}")
        stage = PartitionStage(self.sim)
        stop_ns = start_ns + cycles * (down_ns + up_ns)
        window = FaultWindow(
            kind="flap", target=port.name, start_ns=start_ns, stop_ns=stop_ns,
            params={"down_ns": down_ns, "up_ns": up_ns, "cycles": cycles},
            stage=stage,
        )
        window.params["_port"] = port
        self.windows.append(window)
        return window

    def pause(self, host: Any, start_ns: int, duration_ns: int) -> FaultWindow:
        """Host pause: blackhole the host NIC in both directions.

        Models a VMM stall / live-migration brownout — the host neither
        sends nor receives for ``duration_ns``; in-flight frames on the
        wire at pause start are lost at the rx port like real silicon
        with its DMA engine quiesced.
        """
        stage = PartitionStage(self.sim, failed=True)
        rx_stage = PartitionStage(self.sim, failed=True)
        window = FaultWindow(
            kind="pause", target=host.name, start_ns=start_ns,
            stop_ns=start_ns + duration_ns,
            params={"_tx_port": host.nic.tx_port, "_rx_port": host.nic.rx_port,
                    "_rx_stage": rx_stage},
            stage=stage,
        )
        self.windows.append(window)
        return window

    # -- execution ---------------------------------------------------------
    def transition_times(self) -> tuple[list[int], list[tuple[int, Optional[int]]]]:
        """Every instant this schedule changes the network, pre-run.

        Returns ``(points, blackouts)``: ``points`` are the exact install/
        remove/flip instants (the fluid fast path clips its strides to
        these so an analytic segment never spans a transition), and
        ``blackouts`` the ``[start, stop_or_None)`` intervals during which
        a fault is live anywhere (no flow may be captured inside one).
        """
        points: list[int] = []
        blackouts: list[tuple[int, Optional[int]]] = []
        for w in self.windows:
            points.append(w.start_ns)
            if w.kind == "flap":
                down = w.params["down_ns"]
                up = w.params["up_ns"]
                t = w.start_ns
                for _ in range(w.params["cycles"]):
                    points.append(t + down)       # heal instant
                    blackouts.append((t, t + down))
                    t += down + up
                    points.append(t)              # next fail (or removal)
            else:
                if w.stop_ns is not None:
                    points.append(w.stop_ns)
                blackouts.append((w.start_ns, w.stop_ns))
        return points, blackouts

    def start(self) -> None:
        """Spawn one bounded process per window (call before ``sim.run``)."""
        if self._started:
            raise RuntimeError(f"schedule {self.name!r} already started")
        self._started = True
        region = fluid_region_of(self.sim)
        if region is not None:
            points, blackouts = self.transition_times()
            region.note_transitions(points, blackouts)
        for i, window in enumerate(self.windows):
            runner = {
                "flap": self._run_flap,
                "pause": self._run_pause,
            }.get(window.kind, self._run_window)
            self.sim.process(runner(window), name=f"chaos.{self.name}.w{i}")

    def _note(self, message: str) -> None:
        self.log.append((self.sim.now, message))
        self._events.inc()
        # Ground truth for the health log: every injector install/remove/
        # flip is also a timestamped "fault" event, so detection latency
        # is (first detector event) - (matching fault event).
        self.obs.health.log.emit(
            self.sim.now, f"chaos.schedule.{self.name}", "fault", "info",
            message)

    def _add(self, kind: str, port: Port, start_ns: int,
             stop_ns: Optional[int], stage: FaultInjector,
             **params: Any) -> FaultWindow:
        if self._started:
            raise RuntimeError(f"schedule {self.name!r} already started")
        if stop_ns is not None and stop_ns <= start_ns:
            raise ValueError(f"window must end after it starts: "
                             f"[{start_ns}, {stop_ns})")
        window = FaultWindow(kind=kind, target=port.name, start_ns=start_ns,
                             stop_ns=stop_ns, params=params, stage=stage)
        window.params["_port"] = port
        self.windows.append(window)
        return window

    # Fault kinds whose install releases fluid flows crossing the port
    # (drop-family); reorder/duplicate only perturb delivery order.
    _RELEASES_FLUID = frozenset({"loss", "burst", "partition"})

    def _release_fluid(self, port: Port) -> None:
        # A fault on the path invalidates the analytic fluid model of
        # the flows crossing it: hand them back to packets at this
        # exact instant.
        region = fluid_region_of(self.sim)
        if region is not None:
            region.deescalate_port(port.name, "chaos")

    def _run_window(self, window: FaultWindow):
        port: Port = window.params["_port"]
        if window.start_ns > self.sim.now:
            yield self.sim.timeout(window.start_ns - self.sim.now)
        window.stage.install(port)
        self._note(f"install {window.kind} on {window.target}")
        if window.kind in self._RELEASES_FLUID:
            self._release_fluid(port)
        if window.stop_ns is None:
            return
        yield self.sim.timeout(window.stop_ns - self.sim.now)
        window.stage.remove()
        self._note(f"remove {window.kind} from {window.target}")

    def _run_flap(self, window: FaultWindow):
        port: Port = window.params["_port"]
        stage: PartitionStage = window.stage
        if window.start_ns > self.sim.now:
            yield self.sim.timeout(window.start_ns - self.sim.now)
        stage.install(port)
        for _ in range(window.params["cycles"]):
            stage.fail()
            self._note(f"flap down {window.target}")
            self._release_fluid(port)
            yield self.sim.timeout(window.params["down_ns"])
            stage.heal()
            self._note(f"flap up {window.target}")
            yield self.sim.timeout(window.params["up_ns"])
        stage.remove()
        self._note(f"remove flap from {window.target}")

    def _run_pause(self, window: FaultWindow):
        tx_stage: PartitionStage = window.stage
        rx_stage: PartitionStage = window.params["_rx_stage"]
        if window.start_ns > self.sim.now:
            yield self.sim.timeout(window.start_ns - self.sim.now)
        tx_stage.install(window.params["_tx_port"])
        rx_stage.install(window.params["_rx_port"])
        self._note(f"pause host {window.target}")
        # Host-level fault: below link granularity, so every fluid flow
        # is released (conservative, timing-free).
        self._release_fluid(window.params["_tx_port"])
        yield self.sim.timeout(window.stop_ns - self.sim.now)
        tx_stage.remove()
        rx_stage.remove()
        self._note(f"resume host {window.target}")
