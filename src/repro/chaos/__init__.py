"""Chaos engineering for the VNET/P reproduction (``repro.chaos``).

Deterministic fault injection on the unified datapath pipeline:

* :mod:`repro.chaos.stages` — injector :class:`~repro.sim.pipeline.PacketStage`\\ s
  (Bernoulli loss, Gilbert–Elliott burst loss, partition, fixed delay)
  that install on any pipeline :class:`~repro.sim.pipeline.Port` with
  order-safe removal and ``chaos.*`` metrics;
* :mod:`repro.chaos.schedule` — :class:`~repro.chaos.schedule.FaultSchedule`,
  a declarative timeline of loss, burst-loss and partition windows
  executed by bounded simulator processes.

The overlay-resilience loop this subsystem exercises lives in
:mod:`repro.vnet.heartbeat` (liveness probes),
:mod:`repro.vnet.monitor` (phi-style failure detection) and
:mod:`repro.vnet.adaptation` (failover rerouting); the measured
experiments are :mod:`repro.harness.experiments.resilience`.  See
``docs/robustness.md``.
"""

from .schedule import FaultSchedule, FaultWindow
from .stages import (
    DelayStage,
    FaultInjector,
    GilbertElliottStage,
    LossStage,
    PartitionStage,
    chain_on,
)

__all__ = [
    "FaultSchedule",
    "FaultWindow",
    "FaultInjector",
    "LossStage",
    "GilbertElliottStage",
    "PartitionStage",
    "DelayStage",
    "chain_on",
]
