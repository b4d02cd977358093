"""Declarative fault schedules: timed chaos windows over injector stages.

A :class:`FaultSchedule` is built before the simulation runs — each
builder call (:meth:`FaultSchedule.loss`, :meth:`~FaultSchedule.burst`,
:meth:`~FaultSchedule.partition`) records one *window*: a fault kind,
the port it applies to, and a ``[start_ns, stop_ns)`` interval.
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
    sched.start()
    sim.run()

The activity log (:attr:`FaultSchedule.log`) records every install and
remove with its virtual timestamp, and the schedule counts
events under ``chaos.schedule.<name>.events`` in the obs registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..obs.context import Observability
from ..sim import Simulator
from ..sim.fluid import fluid_region_of
from ..sim.pipeline import Port
from .stages import FaultInjector, GilbertElliottStage, LossStage, PartitionStage

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

    COUNTERS = ("events",)

    def __init__(self, sim: Simulator, name: str = "default"):
        self.sim = sim
        self.name = name
        self.windows: list[FaultWindow] = []
        self.log: list[tuple[int, str]] = []
        self.obs = Observability.of(sim)
        self.events = 0
        self.obs.metrics.publish(f"chaos.schedule.{name}", self)
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
        stage = PartitionStage(self.sim)
        return self._add("partition", port, start_ns, stop_ns, stage)

    # -- execution ---------------------------------------------------------
    def transition_times(self) -> tuple[list[int], list[tuple[int, Optional[int]]]]:
        """Every instant this schedule changes the network, pre-run.

        Returns ``(points, blackouts)``: ``points`` are the exact install
        and remove instants (the fluid fast path clips its strides to
        these so an analytic segment never spans a transition), and
        ``blackouts`` the ``[start, stop_or_None)`` intervals during which
        a fault is live anywhere (no flow may be captured inside one).
        """
        points: list[int] = []
        blackouts: list[tuple[int, Optional[int]]] = []
        for w in self.windows:
            points.append(w.start_ns)
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
            self.sim.process(self._run_window(window),
                             name=f"chaos.{self.name}.w{i}")

    def _note(self, message: str) -> None:
        self.log.append((self.sim.now, message))
        self.events += 1
        # Ground truth for the health log: every injector install and
        # remove is also a timestamped "fault" event, so detection latency
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

    def _run_window(self, window: FaultWindow):
        # Window times are user input and may be floats; a sleep takes an
        # int, truncated as sim.timeout() truncates.
        port: Port = window.params["_port"]
        if window.start_ns > self.sim.now:
            yield int(window.start_ns - self.sim.now)
        window.stage.install(port)
        self._note(f"install {window.kind} on {window.target}")
        # Every window kind drops frames, which invalidates the analytic
        # fluid model of the flows crossing the port: hand them back to
        # packets at this exact instant.
        region = fluid_region_of(self.sim)
        if region is not None:
            region.deescalate_port(port.name, "chaos")
        if window.stop_ns is None:
            return
        yield int(window.stop_ns - self.sim.now)
        window.stage.remove()
        self._note(f"remove {window.kind} from {window.target}")
