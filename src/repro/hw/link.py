"""Point-to-point full-duplex link (patch cable between two NICs)."""

from __future__ import annotations

from ..obs.context import Observability
from ..obs.span import STAGE_LINK
from ..sim import Port, Simulator
from .nic import PhysicalNIC

__all__ = ["Link"]


class Link:
    """Direct cable between two NICs, as in the paper's two-node testbed.

    Serialization is charged by the sending NIC; the link adds only
    propagation delay (cable + PHY) in each direction, concurrently —
    one latency-charged :class:`~repro.sim.pipeline.Port` per direction,
    no per-frame process.
    """

    def __init__(self, sim: Simulator, a: PhysicalNIC, b: PhysicalNIC):
        if a.params.rate_bps != b.params.rate_bps:
            raise ValueError(
                f"link speed mismatch: {a.name}={a.params.rate_bps} "
                f"vs {b.name}={b.params.rate_bps}"
            )
        self.sim = sim
        self.a = a
        self.b = b
        self.obs = Observability.of(sim)
        who = f"link:{a.name}-{b.name}"
        spans = self.obs.spans
        self.to_b = Port(sim, f"{who}.ab", spans=spans, stage=STAGE_LINK,
                         who=who, where="wire")
        self.to_b.connect(b.deliver)
        self.to_a = Port(sim, f"{who}.ba", spans=spans, stage=STAGE_LINK,
                         who=who, where="wire")
        self.to_a.connect(a.deliver)
        a.tx_port.connect(
            lambda frame: self.to_b.push_after(frame, b.params.propagation_ns)
        )
        b.tx_port.connect(
            lambda frame: self.to_a.push_after(frame, a.params.propagation_ns)
        )
