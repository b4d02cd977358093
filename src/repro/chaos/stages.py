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

Determinism: all randomness comes from a per-injector
``numpy.random.default_rng(seed)``; two runs with the same seeds and
the same schedule drop/delay/duplicate exactly the same frames.

Drop-family injectors (:class:`LossStage`, :class:`GilbertElliottStage`,
:class:`PartitionStage`) are timing-transparent predicates and compose
on any port, including the bridge's synchronous filter ports.
:class:`ReorderStage` and :class:`DuplicateStage` re-invoke the
downstream sink (possibly later in virtual time), so they belong on
*delivery* ports — e.g. ``nic.rx_port``, ``core.inbound`` or a switch
port — where the sink is an actual delivery callable, not a predicate
consulted mid-generator.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np

from ..obs.context import Observability
from ..sim import Simulator
from ..sim.pipeline import PacketStage, Port

__all__ = [
    "FaultInjector",
    "LossStage",
    "GilbertElliottStage",
    "PartitionStage",
    "ReorderStage",
    "DuplicateStage",
    "chain_on",
]

# Injector chains per wrapped Port, keyed by id(port) because Port is
# slotted (no attribute attachment).  Entries are removed when the last
# injector leaves a port, so the registry never outlives the harness.
_CHAINS: dict[int, list["FaultInjector"]] = {}


class FaultInjector(PacketStage):
    """Base class: a removable sink-wrapping stage on one Port.

    Subclasses implement :meth:`ingress`; on a pass they must forward by
    returning ``self.forward(frame)``, on a drop they count and return
    ``False`` (the wrapped port then counts the drop too, exactly as if
    the sink itself had refused the frame).
    """

    kind = "fault"

    def __init__(self, sim: Simulator, name: Optional[str] = None):
        self._init_stage(sim, name or f"chaos.{self.kind}")
        self._explicit_name = name is not None
        self._port: Optional[Port] = None
        self._downstream: Optional[Callable[[Any], Any]] = None
        # Bound-method cache: each ``self.ingress`` attribute access makes
        # a fresh bound method, so identity checks against the port sink
        # must go through this single captured reference.
        self._entry: Optional[Callable[[Any], Any]] = None
        self._metrics = Observability.of(sim).metrics
        self._counters: dict[str, Any] = {}

    # -- metrics -----------------------------------------------------------
    def counter(self, metric: str):
        """Get-or-create the ``chaos.<name>.<metric>`` registry counter."""
        c = self._counters.get(metric)
        if c is None:
            c = self._metrics.counter(f"{self.name}.{metric}")
            self._counters[metric] = c
        return c

    def counts(self) -> dict:
        """Snapshot of this injector's chaos counters."""
        return {metric: c.value for metric, c in sorted(self._counters.items())}

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
        self._port = port
        self._downstream = port.sink
        self._entry = self.ingress
        port.rebind(self._entry)
        _CHAINS.setdefault(id(port), []).append(self)
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
        chain = _CHAINS.get(id(port), [])
        if port.sink is self._entry:
            # We are the outermost wrapper: the port points at us.
            port.rebind(self._downstream)
        else:
            # Some later-installed injector forwards into us; re-aim it at
            # whatever we were forwarding into.
            for other in chain:
                if other is not self and other._downstream is self._entry:
                    other._downstream = self._downstream
                    break
        if self in chain:
            chain.remove(self)
        if not chain:
            _CHAINS.pop(id(port), None)
        self._port = None
        self._downstream = None
        self._entry = None

    def forward(self, frame: Any) -> Any:
        """Hand ``frame`` to whatever this injector wraps."""
        return self._downstream(frame)


class LossStage(FaultInjector):
    """Bernoulli frame loss: drop each frame independently with ``rate``."""

    kind = "loss"

    def __init__(self, sim: Simulator, rate: float, seed: int = 0,
                 name: Optional[str] = None):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {rate}")
        super().__init__(sim, name)
        self.rate = rate
        self._rng = np.random.default_rng(seed)

    @property
    def dropped(self) -> int:
        return self.counter("dropped").value

    @property
    def passed(self) -> int:
        return self.counter("passed").value

    def ingress(self, frame: Any) -> Any:
        """Drop with probability ``rate``; otherwise forward."""
        if self._rng.random() < self.rate:
            self.counter("dropped").inc()
            return False
        self.counter("passed").inc()
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
        self._rng = np.random.default_rng(seed)

    @property
    def dropped(self) -> int:
        return self.counter("dropped").value

    @property
    def passed(self) -> int:
        return self.counter("passed").value

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
            self.counter("dropped").inc()
            if self.bad:
                self.counter("burst_dropped").inc()
            return False
        self.counter("passed").inc()
        return self.forward(frame)


class PartitionStage(FaultInjector):
    """A controllable blackhole: ``fail()`` drops everything, ``heal()``
    restores forwarding.  Bidirectional partitions use one stage per
    direction."""

    kind = "partition"

    def __init__(self, sim: Simulator, name: Optional[str] = None,
                 failed: bool = False):
        super().__init__(sim, name)
        self.failed = failed

    @property
    def blackholed(self) -> int:
        return self.counter("blackholed").value

    @property
    def passed(self) -> int:
        return self.counter("passed").value

    def ingress(self, frame: Any) -> Any:
        """Blackhole while failed; otherwise forward untouched."""
        if self.failed:
            self.counter("blackholed").inc()
            return False
        self.counter("passed").inc()
        return self.forward(frame)

    def fail(self) -> None:
        """Start blackholing."""
        if not self.failed:
            self.failed = True
            self.counter("failures").inc()

    def heal(self) -> None:
        """Stop blackholing."""
        self.failed = False

    def fail_for(self, sim: Simulator, duration_ns: int):
        """Generator: partition for a fixed window, then heal."""
        self.fail()
        yield sim.timeout(duration_ns)
        self.heal()


class ReorderStage(FaultInjector):
    """Probabilistically delays frames so later ones overtake them.

    A selected frame is delivered ``delay_ns`` later through a pooled
    kernel event; everything else passes synchronously, so any frame
    arriving within the delay window overtakes the held one.  Install on
    a *delivery* port (``nic.rx_port``, ``core.inbound``, a switch
    port): the held frame is re-injected by calling the downstream sink
    directly, which a mid-generator predicate port cannot honour.
    """

    kind = "reorder"

    def __init__(self, sim: Simulator, prob: float, delay_ns: int,
                 seed: int = 0, name: Optional[str] = None):
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"reorder prob must be in [0, 1], got {prob}")
        if delay_ns <= 0:
            raise ValueError(f"reorder delay must be positive, got {delay_ns}")
        super().__init__(sim, name)
        self.prob = prob
        self.delay_ns = int(delay_ns)
        self._rng = np.random.default_rng(seed)

    @property
    def reordered(self) -> int:
        return self.counter("reordered").value

    @property
    def passed(self) -> int:
        return self.counter("passed").value

    def ingress(self, frame: Any) -> Any:
        """Hold the frame for ``delay_ns`` with probability ``prob``."""
        if self._rng.random() < self.prob:
            self.counter("reordered").inc()
            # Capture the downstream sink now: if the injector is removed
            # before delivery, the in-flight frame still lands.
            sink = self._downstream
            evt = self.sim.timeout(self.delay_ns)
            evt.callbacks.append(lambda _evt, f=frame, s=sink: s(f))
            return True
        self.counter("passed").inc()
        return self.forward(frame)


class DelayStage(FaultInjector):
    """Delays *every* frame by a fixed ``delay_ns``, order-preserving.

    Unlike :class:`ReorderStage` this is deterministic (no RNG) and
    uniform: each frame is held for exactly ``delay_ns`` through a
    pooled kernel event, so relative ordering is preserved — the stage
    models added path latency (a longer overlay hop, a WAN leg), not
    reordering.  The fairness family uses it to build asymmetric-RTT
    competing flows.  Same placement rule as :class:`ReorderStage`:
    install on a *delivery* port (``nic.rx_port``, ``core.inbound``)
    whose downstream sink tolerates direct re-invocation.
    """

    kind = "delay"

    def __init__(self, sim: Simulator, delay_ns: int, name: Optional[str] = None):
        if delay_ns <= 0:
            raise ValueError(f"delay must be positive, got {delay_ns}")
        super().__init__(sim, name)
        self.delay_ns = int(delay_ns)

    @property
    def delayed(self) -> int:
        return self.counter("delayed").value

    def ingress(self, frame: Any) -> Any:
        """Hold the frame for exactly ``delay_ns``, then deliver it."""
        self.counter("delayed").inc()
        # Capture the downstream sink now: if the injector is removed
        # before delivery, the in-flight frame still lands.
        sink = self._downstream
        evt = self.sim.timeout(self.delay_ns)
        evt.callbacks.append(lambda _evt, f=frame, s=sink: s(f))
        return True


class DuplicateStage(FaultInjector):
    """Probabilistically delivers a frame twice (UDP overlay duplication).

    Descriptor payloads are immutable in flight (pipeline ownership rule
    2), so re-presenting the same descriptor models duplication safely.
    Same placement rule as :class:`ReorderStage`: install on a delivery
    port whose sink tolerates re-invocation.
    """

    kind = "duplicate"

    def __init__(self, sim: Simulator, prob: float, seed: int = 0,
                 name: Optional[str] = None):
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"duplicate prob must be in [0, 1], got {prob}")
        super().__init__(sim, name)
        self.prob = prob
        self._rng = np.random.default_rng(seed)

    @property
    def duplicated(self) -> int:
        return self.counter("duplicated").value

    @property
    def passed(self) -> int:
        return self.counter("passed").value

    def ingress(self, frame: Any) -> Any:
        """Forward once, and a second time with probability ``prob``."""
        self.counter("passed").inc()
        result = self.forward(frame)
        if self._rng.random() < self.prob:
            self.counter("duplicated").inc()
            self.forward(frame)
        return result


def chain_on(port: Port) -> list[FaultInjector]:
    """The injectors currently installed on ``port`` (install order)."""
    return list(_CHAINS.get(id(port), ()))
