"""Composable fault-injector stages for the datapath pipeline.

The injectors generalize what used to be hard-wired onto a NIC's
medium callable: each one is a :class:`~repro.sim.pipeline.PacketStage`
that installs onto **any** :class:`~repro.sim.pipeline.Port` — a physical
NIC transmit port, a switch ingress, or the per-link egress filter the
VNET/P bridge exposes on its UDP encapsulation path
(:meth:`repro.vnet.bridge.VnetBridge.link_out`) — by wrapping the port's
sink with :meth:`Port.rebind`.

Two properties the old wrappers lacked:

* **Order-safe removal.**  Injectors stacked on one port form a chain;
  ``remove()`` unwinds the chain by splicing the injector out wherever
  it sits, instead of restoring a callable captured at install time.
  Removing A then B and removing B then A both restore the original
  sink (the old NIC wrappers could mis-restore it).
* **Observable counters.**  Every injector publishes its counters as
  dotted ``chaos.<kind>.<port>.*`` metrics through the shared
  :mod:`repro.obs` registry, so exporters and the cross-process metrics
  merge see fault activity like any other subsystem.

Determinism: all randomness comes from a per-injector, explicitly
seeded :class:`~repro.sim.rng.Rng`; two runs with the same seeds and
the same schedule drop exactly the same frames.

Drop-family injectors (:class:`LossStage`, :class:`GilbertElliottStage`,
:class:`PartitionStage`) are timing-transparent predicates and compose
on any port, including the bridge's synchronous filter ports.
:class:`DelayStage` re-invokes the downstream sink later in virtual
time, so it belongs on *delivery* ports — e.g. ``nic.rx_port``,
``core.inbound`` or a switch port — where the sink is an actual
delivery callable, not a predicate consulted mid-generator.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..obs.context import Observability
from ..sim import Simulator
from ..sim.pipeline import PacketStage, Port
from ..sim.rng import Rng

__all__ = [
    "FaultInjector",
    "LossStage",
    "GilbertElliottStage",
    "PartitionStage",
    "chain_on",
]

class FaultInjector(PacketStage):
    """Base class: a removable sink-wrapping stage on one Port.

    Subclasses implement :meth:`ingress`; on a pass they must forward by
    returning ``self.forward(frame)``, on a drop they count and return
    ``False`` (the port's ``push`` then reports the refusal, exactly as
    if the sink itself had refused the frame).  Each name in
    :attr:`COUNTERS` is an int attribute, published as the registry
    counter ``chaos.<name>.<metric>`` at :meth:`install`, when the name
    is final; :meth:`counts` reads them all.
    """

    kind = "fault"
    COUNTERS: tuple[str, ...] = ()

    def __init__(self, sim: Simulator, name: Optional[str] = None):
        self._init_stage(sim, name or f"chaos.{self.kind}")
        self._explicit_name = name is not None
        self._port: Optional[Port] = None
        self._downstream: Optional[Callable[[Any], Any]] = None
        # Bound-method cache: each ``self.ingress`` attribute access makes
        # a fresh bound method, so identity checks against the port sink
        # must go through this single captured reference.
        self._entry: Optional[Callable[[Any], Any]] = None
        for metric in self.COUNTERS:
            setattr(self, metric, 0)

    # -- metrics -----------------------------------------------------------
    def counts(self) -> dict:
        """Snapshot of this injector's chaos counters, zeros included."""
        return {metric: getattr(self, metric) for metric in sorted(self.COUNTERS)}

    # -- chain management --------------------------------------------------
    @property
    def installed(self) -> bool:
        return self._port is not None

    def install(self, port: Port) -> "FaultInjector":
        """Interpose on ``port`` (idempotent-unsafe: install once)."""
        if self._port is not None:
            raise RuntimeError(f"{self.name} already installed on {self._port.name}")
        if not self._explicit_name:
            # Late-bind the display/metric name to the injection point so
            # counters read ``chaos.loss.h0.nic.tx.dropped``.
            self.name = f"chaos.{self.kind}.{port.name}"
        Observability.of(self.sim).metrics.publish(self.name, self)
        self._port = port
        self._downstream = port.sink
        self._entry = self.ingress
        port.rebind(self._entry)
        return self

    def remove(self) -> None:
        """Splice this injector out of its port's chain, wherever it sits.

        Order-safe: the chain is unwound structurally, so stacked
        injectors may be removed in any order and the port's original
        sink is restored once the chain empties.
        """
        port = self._port
        if port is None:
            return
        if port.sink is self._entry:
            # We are the outermost wrapper: the port points at us.
            port.rebind(self._downstream)
        else:
            # Some later-installed injector forwards into us; re-aim it at
            # whatever we were forwarding into.
            for other in _outermost_first(port):
                if other._downstream is self._entry:
                    other._downstream = self._downstream
                    break
        self._port = None
        self._downstream = None
        self._entry = None

    def forward(self, frame: Any) -> Any:
        """Hand ``frame`` to whatever this injector wraps."""
        return self._downstream(frame)


class LossStage(FaultInjector):
    """Bernoulli frame loss: drop each frame independently with ``rate``."""

    kind = "loss"
    COUNTERS = ("dropped", "passed")

    def __init__(self, sim: Simulator, rate: float, seed: int = 0,
                 name: Optional[str] = None):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {rate}")
        super().__init__(sim, name)
        self.rate = rate
        self._rng = Rng(seed)

    def ingress(self, frame: Any) -> Any:
        """Drop with probability ``rate``; otherwise forward."""
        if self._rng.random() < self.rate:
            self.dropped += 1
            return False
        self.passed += 1
        return self.forward(frame)


class GilbertElliottStage(FaultInjector):
    """Two-state Markov (Gilbert–Elliott) burst loss.

    The channel is either *good* or *bad*; each frame first advances the
    state (good→bad with ``p_gb``, bad→good with ``p_bg``) and is then
    dropped with the state's loss probability (``loss_good`` /
    ``loss_bad``).  Expected stationary bad-state occupancy is
    ``p_gb / (p_gb + p_bg)`` and mean burst length ``1 / p_bg`` frames.
    """

    kind = "burst"
    COUNTERS = ("dropped", "burst_dropped", "passed")

    def __init__(
        self,
        sim: Simulator,
        p_gb: float,
        p_bg: float,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
        seed: int = 0,
        name: Optional[str] = None,
    ):
        for label, p in (("p_gb", p_gb), ("p_bg", p_bg),
                         ("loss_good", loss_good), ("loss_bad", loss_bad)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{label} must be in [0, 1], got {p}")
        super().__init__(sim, name)
        self.p_gb = p_gb
        self.p_bg = p_bg
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self.bad = False
        self._rng = Rng(seed)

    def ingress(self, frame: Any) -> Any:
        """Advance the channel state, then drop per the state's loss prob."""
        rng = self._rng
        if self.bad:
            if rng.random() < self.p_bg:
                self.bad = False
        elif rng.random() < self.p_gb:
            self.bad = True
        p_loss = self.loss_bad if self.bad else self.loss_good
        if p_loss > 0.0 and rng.random() < p_loss:
            self.dropped += 1
            if self.bad:
                self.burst_dropped += 1
            return False
        self.passed += 1
        return self.forward(frame)


class PartitionStage(FaultInjector):
    """A blackhole: drops every frame while installed.  Bidirectional
    partitions use one stage per direction."""

    kind = "partition"
    COUNTERS = ("blackholed",)

    def ingress(self, frame: Any) -> Any:
        """Drop the frame."""
        self.blackholed += 1
        return False


class DelayStage(FaultInjector):
    """Delays *every* frame by a fixed ``delay_ns``, order-preserving.

    The stage is deterministic (no RNG) and uniform: each frame is held
    for exactly ``delay_ns`` through a pooled kernel event, so relative
    ordering is preserved — it models added path latency (a longer
    overlay hop, a WAN leg).  The fairness family uses it to build
    asymmetric-RTT competing flows.  Install it on a *delivery* port
    (``nic.rx_port``, ``core.inbound``) whose downstream sink tolerates
    direct re-invocation: the held frame is re-injected by calling that
    sink.
    """

    kind = "delay"
    COUNTERS = ("delayed",)

    def __init__(self, sim: Simulator, delay_ns: int, name: Optional[str] = None):
        if delay_ns <= 0:
            raise ValueError(f"delay must be positive, got {delay_ns}")
        super().__init__(sim, name)
        self.delay_ns = int(delay_ns)

    def ingress(self, frame: Any) -> Any:
        """Hold the frame for exactly ``delay_ns``, then deliver it."""
        self.delayed += 1
        # Capture the downstream sink now: if the injector is removed
        # before delivery, the in-flight frame still lands.
        sink = self._downstream
        evt = self.sim.timeout(self.delay_ns)
        evt.callbacks.append(lambda _evt, f=frame, s=sink: s(f))
        return True


def _outermost_first(port: Port) -> list[FaultInjector]:
    """The injectors wrapping ``port``, walked from ``port.sink`` inward.

    The chain is structural — each injector's ``_downstream`` is the
    sink it wrapped — so no registry has to (or can) outlive it.
    """
    chain = []
    sink = port.sink
    while True:
        injector = getattr(sink, "__self__", None)
        if not isinstance(injector, FaultInjector) or injector._entry is not sink:
            return chain
        chain.append(injector)
        sink = injector._downstream


def chain_on(port: Port) -> list[FaultInjector]:
    """The injectors currently installed on ``port`` (install order)."""
    return _outermost_first(port)[::-1]
